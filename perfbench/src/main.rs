//! `perfbench`: the split-level I/O simulator's benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --digest --workload NAME --seed N
//! perfbench --rss-probe --workload NAME --seed N
//! ```
//!
//! It runs one workload, built from the seed, over and over for the
//! given host seconds and reports medians. It measures each layer from
//! outside, timing the calls it makes into each crate's public API. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced reps and prints the per-layer split.
//! Every rep's simulated output is digested: a digest that differs
//! between reps, between traced and untraced reps, or from the one
//! recorded for the seed in `digests.txt` fails the run without a number.
//!
//! The second-to-last line of standard output is the full report (host
//! fingerprint, deterministic counters, every metric); the last line is
//! the result object `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod host;
mod json;
mod spans;
mod workloads;
mod wrap;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sim_core::prof::Phase;

use crate::json::Obj;
use crate::spans::Layer;
use crate::workloads::{fleet_workers, phase, run_rep, Mode, Rep, Size, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Reps every run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload write_burst|fsync_tenants|fleet_flash|check_matrix \
[--seed N] [--seconds S] [--trace 0|1]\n       \
perfbench --digest --workload NAME [--seed N]\n       \
perfbench --rss-probe --workload NAME [--seed N]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest: bool,
    rss_probe: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 20.0,
        trace: false,
        digest: false,
        rss_probe: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--digest" => a.digest = true,
            "--rss-probe" => a.rss_probe = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload.expect("checked by parse_args");
    if args.digest {
        let r = run_rep(w, args.seed, Size::full(w), Mode::Plain, 1);
        println!("{} {} {:016x}", w.name(), args.seed, r.digest);
        return ExitCode::SUCCESS;
    }
    if args.rss_probe {
        run_rep(w, args.seed, Size::full(w), Mode::Plain, 1);
        println!("{}", host::peak_rss_bytes().unwrap_or(0));
        return ExitCode::SUCCESS;
    }
    measure(w, &args)
}

/// Peak RSS of one untraced rep, from a child process that runs only
/// that rep: the measuring process's own peak would grow with the
/// number of reps the host manages in the time budget.
fn probe_peak_rss(w: Workload, seed: u64) -> Option<u64> {
    let out = std::process::Command::new(std::env::current_exe().ok()?)
        .args([
            "--rss-probe",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&b| b > 0)
}

/// The digest recorded for `(w, seed)`, if any.
fn recorded_digest(w: Workload, seed: u64) -> Option<u64> {
    include_str!("../digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?.parse::<u64>().ok()?, f.next()?))
        })
        .find(|&(name, s, _)| name == w.name() && s == seed)
        .and_then(|(_, _, d)| u64::from_str_radix(d, 16).ok())
}

/// The reps of one run.
#[derive(Default)]
struct Runs {
    /// Untraced reps (the fleet on one worker).
    plain: Vec<Rep>,
    /// Untraced fleet reps on [`fleet_workers`] workers (traced runs only).
    plain_par: Vec<Rep>,
    /// Traced reps.
    traced: Vec<Rep>,
    /// Host-probe ns around each loop iteration: one before each, and
    /// one after the last.
    probe: Vec<u64>,
    /// Peak RSS of a process running one untraced rep (untraced runs).
    peak_rss: Option<u64>,
}

impl Runs {
    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.plain.iter().chain(&self.plain_par).chain(&self.traced)
    }
}

fn measure(w: Workload, args: &Args) -> ExitCode {
    let size = Size::full(w);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut runs = Runs {
        peak_rss: if args.trace {
            None
        } else {
            probe_peak_rss(w, args.seed)
        },
        ..Runs::default()
    };
    let t0 = Instant::now();
    // Traced runs interleave untraced and traced reps (ABAB) so the
    // tracing overhead is a ratio of neighbours, not of two eras.
    loop {
        runs.probe.push(host::host_probe());
        runs.plain.push(run_rep(w, args.seed, size, Mode::Plain, 1));
        if args.trace {
            if w == Workload::FleetFlash {
                let jobs = fleet_workers();
                runs.plain_par
                    .push(run_rep(w, args.seed, size, Mode::Plain, jobs));
            }
            runs.traced
                .push(run_rep(w, args.seed, size, Mode::Traced, 1));
        }
        let reps = runs.plain.len();
        if reps >= MIN_REPS && t0.elapsed() >= budget {
            break;
        }
    }

    runs.probe.push(host::host_probe());
    let mut problems = correctness(w, args.seed, &runs);
    if !args.trace && runs.peak_rss.is_none() {
        problems.push("the peak-RSS probe process failed".into());
    }
    let first = &runs.plain[0];
    let report = report(w, args, &runs, &problems);
    println!("{}", report.render());
    let mut result = Obj::new();
    result.bool("correct", problems.is_empty());
    result.uint("attempted", first.ops.attempted.max(1));
    result.uint("failed", first.ops.failed);
    if problems.is_empty() {
        let metrics = if args.trace {
            per_layer(w, &runs)
        } else {
            end_to_end_contract(w, &runs)
        };
        let mut m = Obj::new();
        for (name, value, unit) in metrics {
            let mut v = Obj::new();
            v.num("value", value);
            v.str("unit", unit);
            m.obj(&name, v);
        }
        result.obj("metrics", m);
    } else {
        result.obj("metrics", Obj::new());
    }
    if args.trace && has_spans(w) {
        if let Err(e) = write_spans(w, args.seed, &runs) {
            eprintln!("perfbench: could not write the span log: {e}");
        }
    }
    println!("{}", result.render());
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfbench: {p}");
        }
        ExitCode::FAILURE
    }
}

/// Whether the benchmark's wrappers reach into `w`'s worlds.
fn has_spans(w: Workload) -> bool {
    matches!(w, Workload::WriteBurst | Workload::FsyncTenants)
}

/// Write the median traced rep's raw spans as a Chrome trace under the
/// build directory (`$CARGO_TARGET_DIR`, else `.bench_build`).
fn write_spans(w: Workload, seed: u64, runs: &Runs) -> std::io::Result<()> {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let t = median_traced(runs)
        .trace
        .as_ref()
        .expect("traced reps carry a trace");
    let path = dir.join(format!("{}-seed{seed}.json", w.name()));
    std::fs::write(&path, t.spans.chrome_json())
}

/// Everything that makes a run's numbers void.
fn correctness(w: Workload, seed: u64, runs: &Runs) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &runs.plain[0];
    for r in runs.all() {
        if r.digest != first.digest {
            problems.push(format!(
                "digest {:016x} differs from the first rep's {:016x}",
                r.digest, first.digest
            ));
        }
        if r.late != 0 {
            problems.push(format!("{} event(s) scheduled in the past", r.late));
        }
        if r.extra.get("fleet.late").copied().unwrap_or(0.0) != 0.0 {
            problems.push("fleet reported late deliveries".into());
        }
        if r.ops.latency_ms.is_empty() {
            problems.push("no op completed".into());
        }
        if let Some(t) = &r.trace {
            if t.spans.negative_self() != 0 {
                problems.push("a span's nested spans outlasted it".into());
            }
            if has_spans(w) {
                if let Err(e) = t.spans.check_cover(r.run_ns) {
                    problems.push(e);
                }
            }
        }
    }
    if let Some(want) = recorded_digest(w, seed) {
        if first.digest != want {
            problems.push(format!(
                "digest {:016x} differs from the recorded {:016x}",
                first.digest, want
            ));
        }
    }
    problems.dedup();
    problems
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `v` (0 < q <= 1).
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The host probe's time at the reference host speed (its time on the
/// two-vCPU Xeon host the benchmark was tuned on, rounded).
const PROBE_REF_NS: f64 = 50e6;

/// How much slower than the reference the host ran during iteration `i`
/// of the measuring loop: the mean of the probes taken before and after
/// it, over [`PROBE_REF_NS`].
fn host_factor(runs: &Runs, i: usize) -> f64 {
    (runs.probe[i] + runs.probe[i + 1]) as f64 / 2.0 / PROBE_REF_NS
}

/// Median over reps of `ns(rep)`, in seconds at the reference host
/// speed. A shared host's speed drifts in phases of seconds to minutes
/// (identical fsync_tenants reps took 0.55 s in one phase and 0.95 s in
/// the next); the probe around each rep runs slower by nearly the same
/// factor, so dividing it out keeps the run's median steady.
fn adjusted_median_s(runs: &Runs, reps: &[Rep], ns: fn(&Rep) -> u64) -> f64 {
    median(
        reps.iter()
            .enumerate()
            .map(|(i, r)| ns(r) as f64 / host_factor(runs, i) / 1e9)
            .collect(),
    )
}

fn run_ns(r: &Rep) -> u64 {
    r.run_ns
}

fn setup_ns(r: &Rep) -> u64 {
    r.setup_ns
}

fn median_run_s(reps: &[Rep]) -> f64 {
    median(reps.iter().map(|r| r.run_ns as f64 / 1e9).collect())
}

/// The traced rep whose adjusted run time is the median.
fn median_traced(runs: &Runs) -> &Rep {
    let mut order: Vec<(f64, &Rep)> = runs
        .traced
        .iter()
        .enumerate()
        .map(|(i, r)| (r.run_ns as f64 / host_factor(runs, i), r))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    order[order.len() / 2].1
}

/// All eight end-to-end metrics. `sim_speed` and `op_rate` are `None`
/// on check_matrix, whose checker API does not expose simulated time.
/// Host times are in seconds at the reference host speed.
fn end_to_end(w: Workload, runs: &Runs) -> Vec<(&'static str, Option<f64>, &'static str)> {
    let r = &runs.plain[0];
    let run_s = adjusted_median_s(runs, &runs.plain, run_ns);
    let setup_s = adjusted_median_s(runs, &runs.plain, setup_ns);
    let lat = &r.ops.latency_ms;
    let op_rate = r.sim_s.map(|s| match w {
        Workload::WriteBurst => r.ops.bytes as f64 / 1e6 / s,
        _ => lat.len() as f64 / s,
    });
    vec![
        ("setup_s", Some(setup_s), "s"),
        ("events_per_s", Some(r.events as f64 / run_s), "1/s"),
        ("sim_speed", r.sim_s.map(|s| s / run_s), "sim_s/s"),
        ("peak_rss_mb", runs.peak_rss.map(|b| b as f64 / 1e6), "MB"),
        ("op_p50_ms", Some(percentile(lat, 0.50)), "ms"),
        ("op_p99_ms", Some(percentile(lat, 0.99)), "ms"),
        (
            "op_rate",
            op_rate,
            if w == Workload::WriteBurst {
                "MB/s"
            } else {
                "1/s"
            },
        ),
        (
            "op_fail_frac",
            Some((r.ops.failed + r.ops.unfinished) as f64 / r.ops.attempted.max(1) as f64),
            "ratio",
        ),
    ]
}

/// The end-to-end metrics `BENCHMARK.json` lists: those every workload
/// has, that are never zero and that repeat across seeds. `sim_speed`
/// and `op_rate` are missing on check_matrix, `op_fail_frac` is zero or
/// one cut-off op on three workloads, and check_matrix's `op_p50_ms`
/// sits on the boundary between its many instant fsyncs and the rest.
const CONTRACT_E2E: [&str; 4] = ["setup_s", "events_per_s", "peak_rss_mb", "op_p99_ms"];

fn end_to_end_contract(w: Workload, runs: &Runs) -> Vec<(String, f64, &'static str)> {
    end_to_end(w, runs)
        .into_iter()
        .filter(|(n, _, _)| CONTRACT_E2E.contains(n))
        .map(|(n, v, u)| (n.to_string(), v.unwrap_or(f64::NAN), u))
        .collect()
}

/// The per-layer split, from the median traced rep.
fn per_layer(w: Workload, runs: &Runs) -> Vec<(String, f64, &'static str)> {
    let mid = median_traced(runs);
    let t = mid.trace.as_ref().expect("traced reps carry a trace");
    let sp = &t.spans;
    let mut m = Vec::new();
    let mut put = |n: &str, v: f64, u: &'static str| m.push((n.to_string(), v, u));

    let step = sp.totals(Layer::Step);
    put("kernel.step.calls", step.calls as f64, "count");
    put("kernel.step.ns", step.ns as f64, "ns");
    put("kernel.self_ns", step.self_ns as f64, "ns");
    let pn = sp.totals(Layer::ProcNext);
    put("proc.next.calls", pn.calls as f64, "count");
    put("proc.next.ns", pn.ns as f64, "ns");
    let c = sp.counts();
    put("proc.blocked_sim_s", c.blocked_ns as f64 / 1e9, "s");

    for (p, calls, ns) in [
        (
            Phase::EventPush,
            "prof.event_push.calls",
            "prof.event_push.ns",
        ),
        (Phase::EventPop, "prof.event_pop.calls", "prof.event_pop.ns"),
        (Phase::Sched, "prof.sched.calls", "prof.sched.ns"),
        (Phase::Cache, "prof.cache.calls", "prof.cache.ns"),
        (
            Phase::Writeback,
            "prof.writeback.calls",
            "prof.writeback.ns",
        ),
        (Phase::Journal, "prof.journal.calls", "prof.journal.ns"),
        (Phase::MqPump, "prof.mq_pump.calls", "prof.mq_pump.ns"),
    ] {
        let (k, n) = phase(&t.prof, p);
        put(calls, k as f64, "count");
        put(ns, n as f64, "ns");
    }
    put("queue.depth_max", t.prof.depth_max as f64, "count");
    put("mq.inflight_max", t.prof.mq_inflight_max as f64, "count");

    let mut sched_self = 0u64;
    for l in Layer::ALL.into_iter().filter(|l| l.is_sched_hook()) {
        let tot = sp.totals(l);
        sched_self += tot.self_ns;
        put(&format!("{}.calls", l.name()), tot.calls as f64, "count");
        put(&format!("{}.self_ns", l.name()), tot.self_ns as f64, "ns");
    }
    let enter = sp.totals(Layer::SyscallEnter).calls;
    let dispatch = sp.totals(Layer::BlockDispatch).calls;
    put("sched.gate_hold_frac", ratio(c.gate_holds, enter), "ratio");
    put(
        "sched.dispatch_yield",
        ratio(c.dispatched, dispatch),
        "ratio",
    );

    let child = sp.totals(Layer::LayeredChild);
    put("layered.child.calls", child.calls as f64, "count");
    put("layered.child.ns", child.ns as f64, "ns");
    put("layered.child.self_ns", child.self_ns as f64, "ns");
    let layered = w == Workload::FsyncTenants;
    put(
        "layered.self_ns",
        if layered { sched_self as f64 } else { 0.0 },
        "ns",
    );

    for l in [Layer::DeviceService, Layer::DevicePeek] {
        let tot = sp.totals(l);
        put(&format!("{}.calls", l.name()), tot.calls as f64, "count");
        put(&format!("{}.self_ns", l.name()), tot.self_ns as f64, "ns");
    }
    put("device.busy_sim_s", c.device_busy_ns as f64 / 1e9, "s");
    put("device.bytes", c.device_bytes as f64, "bytes");

    let extra = |k: &str| mid.extra.get(k).copied().unwrap_or(0.0);
    put("fleet.build.ns", extra("fleet.build.ns"), "ns");
    let speedup = if w == Workload::FleetFlash {
        adjusted_median_s(runs, &runs.plain, run_ns)
            / adjusted_median_s(runs, &runs.plain_par, run_ns)
    } else {
        0.0
    };
    put("fleet.speedup_2w", speedup, "ratio");
    put("fleet.inflight_end", extra("fleet.inflight_end"), "count");
    put("fleet.late", extra("fleet.late"), "count");
    put("check.generate.ns", extra("check.generate.ns"), "ns");
    put("check.program.ns", extra("check.program.ns"), "ns");
    put("check.programs", extra("check.programs"), "count");
    put("check.failed", extra("check.failed"), "count");

    // Allocation counts from the last untraced rep: earlier reps also
    // pay for one-time lazy set-up of the process.
    let last = runs.plain.last().expect("at least one rep");
    put("alloc.setup.count", last.alloc_setup as f64, "count");
    put("alloc.steady.count", last.alloc_steady as f64, "count");
    put("alloc.peak_bytes", last.alloc_peak as f64, "bytes");

    put(
        "trace.overhead",
        adjusted_median_s(runs, &runs.traced, run_ns)
            / adjusted_median_s(runs, &runs.plain, run_ns),
        "ratio",
    );
    m
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The full report line: fingerprint, counters, every metric.
fn report(w: Workload, args: &Args, runs: &Runs, problems: &[String]) -> Obj {
    let fp = host::fingerprint();
    let first = &runs.plain[0];
    let mut o = Obj::new();
    o.str("report", "perfbench");
    o.str("workload", w.name());
    o.uint("seed", args.seed);
    o.uint("trace", args.trace as u64);
    let mut h = Obj::new();
    h.uint("nproc", fp.nproc as u64);
    h.str("cpu", &fp.cpu);
    h.str("rustc", fp.rustc);
    h.str("git", &fp.git);
    h.uint("fleet_workers", fleet_workers() as u64);
    o.obj("host", h);
    o.str("digest", &format!("{:016x}", first.digest));
    o.str(
        "digest_recorded",
        match recorded_digest(w, args.seed) {
            Some(d) if d == first.digest => "match",
            Some(_) => "MISMATCH",
            None => "not recorded for this seed",
        },
    );
    let mut probs = Obj::new();
    for (i, p) in problems.iter().enumerate() {
        probs.str(&i.to_string(), p);
    }
    o.obj("problems", probs);

    // Deterministic work counters: identical on every rep and host.
    let mut c = Obj::new();
    c.uint("events", first.events);
    c.uint("ops.attempted", first.ops.attempted);
    c.uint("ops.completed", first.ops.latency_ms.len() as u64);
    c.uint("ops.failed", first.ops.failed);
    c.uint("ops.unfinished", first.ops.unfinished);
    c.uint("alloc.setup.count", last_plain(runs).alloc_setup);
    c.uint("alloc.steady.count", last_plain(runs).alloc_steady);
    for (k, v) in &first.extra {
        if !k.ends_with(".ns") {
            c.num(k, *v);
        }
    }
    if let Some(t) = runs.traced.first().and_then(|r| r.trace.as_ref()) {
        for l in Layer::ALL {
            c.uint(&format!("{}.calls", l.name()), t.spans.totals(l).calls);
        }
        let k = t.spans.counts();
        c.uint("sched.gate_holds", k.gate_holds);
        c.uint("sched.dispatched", k.dispatched);
        c.uint("device.busy_sim_ns", k.device_busy_ns);
        c.uint("device.bytes", k.device_bytes);
        c.uint("proc.blocked_sim_ns", k.blocked_ns);
        for p in Phase::ALL {
            let (calls, _) = phase(&t.prof, p);
            c.uint(&format!("prof.{}.calls", p.name()), calls);
        }
    }
    o.obj("counters", c);

    // Host timings, every rep.
    let mut tm = Obj::new();
    let list = |reps: &[Rep], f: fn(&Rep) -> u64| {
        reps.iter()
            .map(|r| f(r).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    tm.raw(
        "plain_setup_ns",
        &format!("[{}]", list(&runs.plain, |r| r.setup_ns)),
    );
    tm.raw(
        "plain_run_ns",
        &format!("[{}]", list(&runs.plain, |r| r.run_ns)),
    );

    if args.trace {
        tm.raw(
            "traced_run_ns",
            &format!("[{}]", list(&runs.traced, |r| r.run_ns)),
        );
        if w == Workload::FleetFlash {
            tm.raw(
                "plain_par_run_ns",
                &format!("[{}]", list(&runs.plain_par, |r| r.run_ns)),
            );
        }
    }
    tm.raw(
        "probe_ns",
        &format!(
            "[{}]",
            runs.probe
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    tm.num("plain_run_s_median", median_run_s(&runs.plain));
    tm.num(
        "raw_events_per_s",
        first.events as f64 / median_run_s(&runs.plain),
    );
    tm.num(
        "host_factor_median",
        median(
            (0..runs.plain.len())
                .map(|i| host_factor(runs, i))
                .collect(),
        ),
    );
    o.obj("timings", tm);

    let mut e = Obj::new();
    for (name, value, unit) in end_to_end(w, runs) {
        let mut v = Obj::new();
        match value {
            Some(x) => v.num("value", x),
            None => v.raw("value", "null"),
        }
        v.str("unit", unit);
        e.obj(name, v);
    }
    o.obj("end_to_end", e);
    o.uint("op_samples", first.ops.latency_ms.len() as u64);
    o
}

fn last_plain(runs: &Runs) -> &Rep {
    runs.plain.last().expect("at least one rep")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            [
                "--workload",
                "fleet_flash",
                "--seed",
                "3",
                "--seconds",
                "2",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::FleetFlash));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"][..],
            &["--trace", "2", "--workload", "write_burst"][..],
            &["--seconds", "-1", "--workload", "write_burst"][..],
            &[][..],
        ] {
            assert!(
                parse_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.99), 198.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    /// Short wrapped and unwrapped reps of every workload must agree, and
    /// the step spans must cover the stepping loop.
    fn self_test() -> Result<(), String> {
        for w in Workload::ALL {
            let size = Size::short(w);
            let a = run_rep(w, 7, size, Mode::Plain, fleet_workers());
            let b = run_rep(w, 7, size, Mode::Plain, 1);
            let t = run_rep(w, 7, size, Mode::Traced, 1);
            if a.digest != b.digest || a.digest != t.digest {
                return Err(format!(
                    "{}: digests differ (parallel fleet {:016x}, plain {:016x}, traced {:016x})",
                    w.name(),
                    a.digest,
                    b.digest,
                    t.digest
                ));
            }
            let tr = t.trace.as_ref().expect("traced rep");
            let step = tr.spans.totals(Layer::Step);
            if tr.spans.negative_self() != 0 {
                return Err(format!("{}: negative self time", w.name()));
            }
            if has_spans(w) {
                if step.calls != t.events {
                    return Err(format!("{}: a step ran outside a span", w.name()));
                }
                tr.spans
                    .check_cover(t.run_ns)
                    .map_err(|e| format!("{}: {e}", w.name()))?;
            }
            println!(
                "self-test: {} digest {:016x}, {} events, {} step ns",
                w.name(),
                a.digest,
                a.events,
                step.ns
            );
        }
        // The benchmark judges check_matrix programs through `run_one`; its
        // verdict must be `check_program`'s, on clean and failing programs.
        for (seed, idx) in [(7, 0), (7, 1), (0, 24)] {
            let spec = workloads::program(seed, idx);
            let ours = workloads::check_matrix_program(&spec).problems.is_empty();
            let theirs = sim_sweep::check_program(&spec).is_empty();
            if ours != theirs {
                return Err(format!(
                    "check_matrix verdict for program ({seed}, {idx}) differs from check_program"
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn wrapped_and_plain_runs_agree_and_spans_cover_the_loop() {
        self_test().expect("self-test");
    }
}
