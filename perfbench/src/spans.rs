//! In-memory span tracer for the traced run.
//!
//! Every timed call the benchmark makes into a layer opens a span on a
//! stack. Closing it charges the span's duration to its layer and to the
//! enclosing span's child time, so a layer's *self* time is its duration
//! minus the nested spans inside it. Only spans nested under a
//! `kernel.step` root are counted: calls made while a world is being
//! built are set-up, not steady state. The per-layer self times of a run
//! therefore sum exactly to the root's total.
//!
//! A bounded log keeps the first [`LOG_CAP`] spans (id, parent, layer,
//! start, duration) in memory; [`Tracer::chrome_json`] writes them out
//! when the run ends.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Raw spans kept per traced run (preallocated at set-up, so the log
/// never allocates in steady state).
pub const LOG_CAP: usize = 20_000;

/// Least share of the stepping loop's host time the step spans must
/// cover. The rest is the loop's own test and the tracer's bookkeeping
/// between spans, a few percent.
pub const MIN_COVER: f64 = 0.8;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `World::step` (sim-kernel): the root of every counted span.
    Step,
    /// `ProcessLogic::next` (sim-workloads).
    ProcNext,
    /// `IoSched::syscall_enter` on the kernel's scheduler.
    SyscallEnter,
    /// `IoSched::syscall_exit`.
    SyscallExit,
    /// `IoSched::buffer_dirtied`.
    BufferDirtied,
    /// `IoSched::block_add`.
    BlockAdd,
    /// `IoSched::block_dispatch`.
    BlockDispatch,
    /// `IoSched::block_completed`.
    BlockCompleted,
    /// `IoSched::timer_fired`.
    TimerFired,
    /// Every other `IoSched` hook (configure, buffer_freed, block_failed,
    /// pick_dirty_waiter, queued, audit).
    SchedOther,
    /// Any hook of a child scheduler inside the `split-layered` arbiter.
    LayeredChild,
    /// `DiskModel::service_time` (sim-device).
    DeviceService,
    /// `DiskModel::peek_service_time`.
    DevicePeek,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::Step,
        Layer::ProcNext,
        Layer::SyscallEnter,
        Layer::SyscallExit,
        Layer::BufferDirtied,
        Layer::BlockAdd,
        Layer::BlockDispatch,
        Layer::BlockCompleted,
        Layer::TimerFired,
        Layer::SchedOther,
        Layer::LayeredChild,
        Layer::DeviceService,
        Layer::DevicePeek,
    ];

    /// Metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "kernel.step",
            Layer::ProcNext => "proc.next",
            Layer::SyscallEnter => "sched.syscall_enter",
            Layer::SyscallExit => "sched.syscall_exit",
            Layer::BufferDirtied => "sched.buffer_dirtied",
            Layer::BlockAdd => "sched.block_add",
            Layer::BlockDispatch => "sched.block_dispatch",
            Layer::BlockCompleted => "sched.block_completed",
            Layer::TimerFired => "sched.timer_fired",
            Layer::SchedOther => "sched.other",
            Layer::LayeredChild => "layered.child",
            Layer::DeviceService => "device.service",
            Layer::DevicePeek => "device.peek",
        }
    }

    /// Whether the layer is a hook of the kernel's own scheduler.
    pub fn is_sched_hook(self) -> bool {
        matches!(
            self,
            Layer::SyscallEnter
                | Layer::SyscallExit
                | Layer::BufferDirtied
                | Layer::BlockAdd
                | Layer::BlockDispatch
                | Layer::BlockCompleted
                | Layer::TimerFired
                | Layer::SchedOther
        )
    }

    fn idx(self) -> usize {
        self as usize
    }
}

const NLAYERS: usize = Layer::ALL.len();

/// Totals for one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Closed spans.
    pub calls: u64,
    /// Summed span durations, nested spans included.
    pub ns: u64,
    /// Summed durations minus the nested spans inside them.
    pub self_ns: u64,
}

/// Deterministic counts the wrappers take at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `syscall_enter` calls that returned `Gate::Hold`.
    pub gate_holds: u64,
    /// `block_dispatch` calls that returned a request.
    pub dispatched: u64,
    /// Simulated device busy time, summed over `service_time` results (ns).
    pub device_busy_ns: u64,
    /// Bytes of the requests passed to `service_time`.
    pub device_bytes: u64,
    /// Simulated time processes spent inside syscalls (ns).
    pub blocked_ns: u64,
}

/// One raw span of the log.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// Open order.
    pub id: u32,
    /// Enclosing span's id (`u32::MAX` for a root).
    pub parent: u32,
    /// Layer.
    pub layer: Layer,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

struct Open {
    layer: Layer,
    id: u32,
    start: Instant,
    child_ns: u64,
}

/// The span stack, per-layer totals and the raw-span log of one run.
pub struct Tracer {
    epoch: Instant,
    stack: RefCell<Vec<Open>>,
    totals: RefCell<[Totals; NLAYERS]>,
    counts: Cell<Counts>,
    next_id: Cell<u32>,
    log: RefCell<Vec<RawSpan>>,
    negative_self: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: RefCell::new(Vec::with_capacity(16)),
            totals: RefCell::new([Totals::default(); NLAYERS]),
            counts: Cell::new(Counts::default()),
            next_id: Cell::new(0),
            log: RefCell::new(Vec::with_capacity(LOG_CAP)),
            negative_self: Cell::new(0),
        }
    }

    /// Whether a root span is open, i.e. whether calls are being counted.
    #[inline]
    pub fn armed(&self) -> bool {
        !self.stack.borrow().is_empty()
    }

    /// Run `f` as a root span (`World::step`).
    #[inline]
    pub fn root<R>(&self, f: impl FnOnce() -> R) -> R {
        self.open(Layer::Step);
        let r = f();
        self.close();
        r
    }

    /// Run `f` as a span of `layer` if a root is open; otherwise just run
    /// it (set-up calls are not counted).
    #[inline]
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.armed() {
            return f();
        }
        self.open(layer);
        let r = f();
        self.close();
        r
    }

    /// Update the boundary counts if a root is open.
    #[inline]
    pub fn count(&self, f: impl FnOnce(&mut Counts)) {
        if self.armed() {
            let mut c = self.counts.get();
            f(&mut c);
            self.counts.set(c);
        }
    }

    fn open(&self, layer: Layer) {
        let id = self.next_id.get();
        self.next_id.set(id.wrapping_add(1));
        self.stack.borrow_mut().push(Open {
            layer,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn close(&self) {
        let end = Instant::now();
        let mut stack = self.stack.borrow_mut();
        let open = stack.pop().expect("close matches an open span");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        // Nested spans lie inside this one on the same monotonic clock,
        // so their durations never add up to more than `dur`; a clock
        // that broke that would show in `negative_self`, never as a
        // wrapped self time.
        let self_ns = dur.checked_sub(open.child_ns).unwrap_or_else(|| {
            self.negative_self.set(self.negative_self.get() + 1);
            0
        });
        let parent = match stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => u32::MAX,
        };
        drop(stack);
        let t = &mut self.totals.borrow_mut()[open.layer.idx()];
        t.calls += 1;
        t.ns += dur;
        t.self_ns += self_ns;
        let mut log = self.log.borrow_mut();
        if log.len() < LOG_CAP {
            log.push(RawSpan {
                id: open.id,
                parent,
                layer: open.layer,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur,
            });
        }
    }

    /// Totals of `layer`.
    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals.borrow()[layer.idx()]
    }

    /// The boundary counts.
    pub fn counts(&self) -> Counts {
        self.counts.get()
    }

    /// Spans whose nested spans outlasted them (must stay zero).
    pub fn negative_self(&self) -> u64 {
        self.negative_self.get()
    }

    /// Check the step spans against `outer_ns`, host time measured
    /// around the whole stepping loop. The spans lie inside the loop, so
    /// they can never add up to more; and since every step is a root,
    /// they must cover at least [`MIN_COVER`] of it. A step taken outside
    /// a root, or a clock that misbehaves, fails here.
    pub fn check_cover(&self, outer_ns: u64) -> Result<(), String> {
        let step = self.totals(Layer::Step).ns;
        if step > outer_ns || (step as f64) < MIN_COVER * outer_ns as f64 {
            return Err(format!(
                "step spans cover {step} ns of a {outer_ns} ns stepping loop \
                 (must be between {MIN_COVER} and 1 of it)"
            ));
        }
        Ok(())
    }

    /// The raw-span log as Chrome trace-event JSON.
    pub fn chrome_json(&self) -> String {
        let log = self.log.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in log.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                if s.parent == u32::MAX {
                    -1
                } else {
                    s.parent as i64
                }
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let tr = Tracer::new();
        for _ in 0..50 {
            tr.root(|| {
                spin(2_000);
                tr.span(Layer::BlockDispatch, || {
                    spin(1_000);
                    tr.span(Layer::LayeredChild, || {
                        tr.span(Layer::DevicePeek, || spin(500));
                    });
                });
                tr.span(Layer::ProcNext, || spin(300));
            });
        }
        let step = tr.totals(Layer::Step);
        assert_eq!(step.calls, 50);
        assert!(step.self_ns > 0);
        let nested: u64 = Layer::ALL[1..].iter().map(|&l| tr.totals(l).self_ns).sum();
        assert_eq!(nested + step.self_ns, step.ns);
        let d = tr.totals(Layer::BlockDispatch);
        let c = tr.totals(Layer::LayeredChild);
        let p = tr.totals(Layer::DevicePeek);
        assert_eq!(d.ns, d.self_ns + c.ns);
        assert_eq!(c.ns, c.self_ns + p.ns);
        assert_eq!(p.ns, p.self_ns);
        assert_eq!(tr.negative_self(), 0);
    }

    #[test]
    fn cover_check_fails_on_untraced_steps_and_overlong_spans() {
        let tr = Tracer::new();
        let t = Instant::now();
        for _ in 0..20 {
            tr.root(|| spin(5_000));
        }
        let outer = t.elapsed().as_nanos() as u64;
        tr.check_cover(outer).expect("every step is a root");
        // Spans longer than the loop around them.
        let step = tr.totals(Layer::Step).ns;
        assert!(tr.check_cover(step - 1).is_err());
        // Steps taken outside a root: the spans cover half the loop.
        let tr = Tracer::new();
        let t = Instant::now();
        for _ in 0..20 {
            tr.root(|| spin(5_000));
            spin(5_000);
        }
        assert!(tr.check_cover(t.elapsed().as_nanos() as u64).is_err());
    }

    #[test]
    fn calls_outside_a_root_are_not_counted() {
        let tr = Tracer::new();
        let v = tr.span(Layer::ProcNext, || 7);
        tr.count(|c| c.gate_holds += 1);
        assert_eq!(v, 7);
        assert_eq!(tr.totals(Layer::ProcNext), Totals::default());
        assert_eq!(tr.counts(), Counts::default());
        tr.root(|| tr.count(|c| c.gate_holds += 1));
        assert_eq!(tr.counts().gate_holds, 1);
    }

    #[test]
    fn log_links_children_to_parents_and_renders() {
        let tr = Tracer::new();
        tr.root(|| tr.span(Layer::DeviceService, || ()));
        let json = tr.chrome_json();
        assert!(json.contains("\"name\":\"device.service\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":-1"));
    }
}
