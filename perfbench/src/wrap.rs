//! Pure-passthrough wrappers that time the calls a world makes into each
//! layer through its public hook traits, plus the op log that measures a
//! workload's simulated op latency.
//!
//! The timing wrappers only exist in the traced run; the op log is part
//! of the workload and is installed in every run, so the simulated
//! output of traced and untraced runs is the same.

use std::cell::RefCell;
use std::rc::Rc;

use sim_block::{Dispatch, Request};
use sim_core::{IoError, Pid, SimDuration, SimTime};
use sim_device::{DiskModel, DiskRequestShape};
use sim_kernel::{Outcome, ProcAction, ProcessLogic};
use split_core::{
    BufferDirtied, BufferFreed, Gate, IoSched, SchedAttr, SchedCtx, SyscallInfo, SyscallKind,
};

use crate::spans::{Layer, Tracer};

/// Times a scheduler. The kernel's own scheduler charges each hook to
/// its own `sched.<hook>` layer; a child of the layered arbiter charges
/// every hook to `layered.child`.
pub struct TimedSched {
    inner: Box<dyn IoSched>,
    tr: Rc<Tracer>,
    child: bool,
}

impl TimedSched {
    /// Wrap the kernel's scheduler.
    pub fn top(inner: Box<dyn IoSched>, tr: Rc<Tracer>) -> Self {
        TimedSched {
            inner,
            tr,
            child: false,
        }
    }

    /// Wrap a child scheduler of the layered arbiter.
    pub fn child(inner: Box<dyn IoSched>, tr: Rc<Tracer>) -> Self {
        TimedSched {
            inner,
            tr,
            child: true,
        }
    }

    #[inline]
    fn layer(&self, hook: Layer) -> Layer {
        if self.child {
            Layer::LayeredChild
        } else {
            hook
        }
    }
}

impl IoSched for TimedSched {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn configure(&mut self, pid: Pid, attr: SchedAttr) {
        let l = self.layer(Layer::SchedOther);
        self.tr.span(l, || self.inner.configure(pid, attr))
    }

    fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
        let l = self.layer(Layer::SyscallEnter);
        let g = self.tr.span(l, || self.inner.syscall_enter(sc, ctx));
        if !self.child && g == Gate::Hold {
            self.tr.count(|c| c.gate_holds += 1);
        }
        g
    }

    fn syscall_exit(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) {
        let l = self.layer(Layer::SyscallExit);
        self.tr.span(l, || self.inner.syscall_exit(sc, ctx))
    }

    fn buffer_dirtied(&mut self, ev: &BufferDirtied, ctx: &mut SchedCtx<'_>) {
        let l = self.layer(Layer::BufferDirtied);
        self.tr.span(l, || self.inner.buffer_dirtied(ev, ctx))
    }

    fn buffer_freed(&mut self, ev: &BufferFreed, ctx: &mut SchedCtx<'_>) {
        let l = self.layer(Layer::SchedOther);
        self.tr.span(l, || self.inner.buffer_freed(ev, ctx))
    }

    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        let l = self.layer(Layer::BlockAdd);
        self.tr.span(l, || self.inner.block_add(req, ctx))
    }

    fn block_dispatch(&mut self, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let l = self.layer(Layer::BlockDispatch);
        let d = self.tr.span(l, || self.inner.block_dispatch(ctx));
        if !self.child && matches!(d, Dispatch::Issue(_)) {
            self.tr.count(|c| c.dispatched += 1);
        }
        d
    }

    fn block_completed(&mut self, req: &Request, ctx: &mut SchedCtx<'_>) {
        let l = self.layer(Layer::BlockCompleted);
        self.tr.span(l, || self.inner.block_completed(req, ctx))
    }

    fn block_failed(&mut self, req: &Request, error: IoError, ctx: &mut SchedCtx<'_>) {
        let l = self.layer(Layer::SchedOther);
        self.tr.span(l, || self.inner.block_failed(req, error, ctx))
    }

    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        let l = self.layer(Layer::TimerFired);
        self.tr.span(l, || self.inner.timer_fired(ctx))
    }

    fn pick_dirty_waiter(&mut self, waiters: &[Pid]) -> usize {
        let l = self.layer(Layer::SchedOther);
        self.tr.span(l, || self.inner.pick_dirty_waiter(waiters))
    }

    fn queued(&self) -> usize {
        let l = self.layer(Layer::SchedOther);
        self.tr.span(l, || self.inner.queued())
    }

    fn audit(&self, quiesced: bool) -> Vec<String> {
        let l = self.layer(Layer::SchedOther);
        self.tr.span(l, || self.inner.audit(quiesced))
    }
}

/// Times a device model's service-time calls and sums the simulated
/// busy time and bytes it hands out.
pub struct TimedDisk {
    inner: Box<dyn DiskModel>,
    tr: Rc<Tracer>,
}

impl TimedDisk {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn DiskModel>, tr: Rc<Tracer>) -> Self {
        TimedDisk { inner, tr }
    }
}

impl DiskModel for TimedDisk {
    fn service_time(&mut self, shape: &DiskRequestShape) -> SimDuration {
        let d = self
            .tr
            .span(Layer::DeviceService, || self.inner.service_time(shape));
        self.tr.count(|c| {
            c.device_busy_ns += d.as_nanos();
            c.device_bytes += shape.bytes();
        });
        d
    }

    fn peek_service_time(&self, shape: &DiskRequestShape) -> SimDuration {
        self.tr
            .span(Layer::DevicePeek, || self.inner.peek_service_time(shape))
    }

    fn seq_bandwidth(&self) -> f64 {
        self.inner.seq_bandwidth()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_rotational(&self) -> bool {
        self.inner.is_rotational()
    }
}

/// Times a process's `next` calls and sums the simulated time it spent
/// blocked in syscalls.
pub struct TimedProc {
    inner: Box<dyn ProcessLogic>,
    tr: Rc<Tracer>,
    in_syscall_since: Option<SimTime>,
}

impl TimedProc {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ProcessLogic>, tr: Rc<Tracer>) -> Self {
        TimedProc {
            inner,
            tr,
            in_syscall_since: None,
        }
    }
}

impl ProcessLogic for TimedProc {
    fn next(&mut self, now: SimTime, last: &Outcome) -> ProcAction {
        if let Some(t0) = self.in_syscall_since.take() {
            let blocked = now.as_nanos() - t0.as_nanos();
            self.tr.count(|c| c.blocked_ns += blocked);
        }
        let a = self.tr.span(Layer::ProcNext, || self.inner.next(now, last));
        if matches!(a, ProcAction::Syscall(_)) {
            self.in_syscall_since = Some(now);
        }
        a
    }
}

/// Which syscalls open and close one op of a workload.
#[derive(Debug, Clone, Copy)]
pub enum OpShape {
    /// One read syscall.
    Read,
    /// A write followed by the fsync that makes it durable.
    AppendFsync,
}

/// Simulated op measurements of one process.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpStats {
    /// Ops started.
    pub attempted: u64,
    /// Ops that ended with `Outcome::Failed`.
    pub failed: u64,
    /// Latency of every completed op, ns, in completion order.
    pub latency_ns: Vec<u64>,
    /// Bytes the completed ops moved.
    pub bytes: u64,
}

/// Records the simulated latency of each op of the wrapped process. It
/// never changes the actions it passes on.
pub struct OpLog {
    inner: Box<dyn ProcessLogic>,
    shape: OpShape,
    started: Option<SimTime>,
    stats: Rc<RefCell<OpStats>>,
}

impl OpLog {
    /// Wrap `inner`; measurements land in the returned handle.
    pub fn new(inner: Box<dyn ProcessLogic>, shape: OpShape) -> (Self, Rc<RefCell<OpStats>>) {
        let stats = Rc::new(RefCell::new(OpStats::default()));
        let log = OpLog {
            inner,
            shape,
            started: None,
            stats: Rc::clone(&stats),
        };
        (log, stats)
    }
}

impl ProcessLogic for OpLog {
    fn next(&mut self, now: SimTime, last: &Outcome) -> ProcAction {
        if let Some(t0) = self.started {
            let done = match (self.shape, last) {
                (_, Outcome::Failed(_)) => {
                    self.stats.borrow_mut().failed += 1;
                    self.started = None;
                    None
                }
                (OpShape::Read, Outcome::Read { bytes, .. }) => Some(*bytes),
                (OpShape::AppendFsync, Outcome::Synced) => Some(0),
                (OpShape::AppendFsync, Outcome::Written { bytes }) => {
                    self.stats.borrow_mut().bytes += bytes;
                    None
                }
                _ => None,
            };
            if let Some(bytes) = done {
                let mut s = self.stats.borrow_mut();
                s.latency_ns.push(now.as_nanos() - t0.as_nanos());
                s.bytes += bytes;
                self.started = None;
            }
        }
        let a = self.inner.next(now, last);
        let opens = matches!(
            (self.shape, &a),
            (OpShape::Read, ProcAction::Syscall(SyscallKind::Read { .. }))
                | (
                    OpShape::AppendFsync,
                    ProcAction::Syscall(SyscallKind::Write { .. })
                )
        );
        if opens && self.started.is_none() {
            self.started = Some(now);
            self.stats.borrow_mut().attempted += 1;
        }
        a
    }
}
