//! Scheduler core: virtual clocks, run queues, the coherence cost model,
//! and the token-passing protocol that sequentializes the simulated
//! processes (fibers on the thread that called `Simulation::run`).

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

use crate::config::SimConfig;
use crate::fault::{FaultAction, FaultPlan, FaultTrigger};

/// Panic payload used to unwind a process that was killed by the fault
/// layer. The runner recognizes it and swallows the unwind instead
/// of treating it as a test failure.
pub(crate) struct ProcessKilled;

/// Identifies "no process" in the token slot.
pub(crate) const NOBODY: usize = usize::MAX;

/// SplitMix64: a full-period mixer used to derive per-processor schedule
/// perturbations from [`SimConfig::seed`].
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The kinds of shared-memory operation the cost model distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemOp {
    Load,
    Store(u64),
    CompareExchange { current: u64, new: u64 },
    Swap(u64),
    FetchAdd(u64),
}

/// Result of a memory operation: the value returned to the caller plus
/// whether a CAS failed (for statistics).
pub(crate) struct MemResult {
    pub value: Result<u64, u64>,
    // Recorded in per-process stats by `apply`; kept on the result for
    // white-box tests of the cost model.
    #[cfg_attr(not(test), allow(dead_code))]
    pub cas_failed: bool,
}

/// Fixed 256-bit processor set: which processors hold a cell in cache.
/// Sized for the simulator's 256-processor ceiling (see
/// [`SimConfig::validate`]).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SharerSet([u64; 4]);

impl SharerSet {
    pub(crate) const EMPTY: SharerSet = SharerSet([0; 4]);

    fn only(cpu: usize) -> SharerSet {
        let mut s = SharerSet::EMPTY;
        s.insert(cpu);
        s
    }

    fn contains(&self, cpu: usize) -> bool {
        self.0[cpu >> 6] & (1u64 << (cpu & 63)) != 0
    }

    fn insert(&mut self, cpu: usize) {
        self.0[cpu >> 6] |= 1u64 << (cpu & 63);
    }

    /// Number of sharers other than `cpu`.
    fn others(&self, cpu: usize) -> u64 {
        let total: u32 = self.0.iter().map(|w| w.count_ones()).sum();
        u64::from(total) - u64::from(self.contains(cpu))
    }

    /// True when `cpu` is the sole sharer.
    fn is_exactly(&self, cpu: usize) -> bool {
        *self == SharerSet::only(cpu)
    }
}

pub(crate) struct CellState {
    pub(crate) value: u64,
    /// Which processors currently hold this cell in cache.
    pub(crate) sharers: SharerSet,
}

pub(crate) struct Processor {
    pub(crate) clock_ns: u64,
    /// Front is the currently scheduled process.
    pub(crate) run_queue: VecDeque<usize>,
    pub(crate) quantum_left_ns: u64,
    /// Deterministic xorshift state for quantum jitter.
    pub(crate) rng: u64,
    /// Quantum expiries charged on this processor; the report sums them.
    pub(crate) preemptions: u64,
}

impl Processor {
    /// Next quantum length: the configured quantum ±25%, from a seeded
    /// xorshift so runs stay reproducible. Without jitter the workload's
    /// nearly-periodic op sequence phase-locks against the quantum and
    /// expiries systematically miss (or hit) critical sections — an
    /// artifact a real machine's noise does not have.
    pub(crate) fn next_quantum(&mut self, base: u64) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let half_range = base / 4;
        if half_range == 0 {
            return base.max(1);
        }
        base - half_range + self.rng % (2 * half_range)
    }
}

pub(crate) struct Process {
    pub(crate) cpu: usize,
    pub(crate) finished: bool,
    pub(crate) ops: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) cas_failures: u64,
    /// Scheduler entries (memory ops + delays), the clock for
    /// [`FaultTrigger::Op`]. Only advanced for fault-watched processes.
    pub(crate) steps: u64,
    /// Virtual time before which this process may not run (stall faults).
    /// Zero for unfaulted processes, keeping the canonical schedule exact.
    pub(crate) blocked_until_ns: u64,
    /// Processor clock when the process retired (finish or kill).
    pub(crate) finished_at_ns: u64,
    /// Per-label fault-point hit counts, for [`FaultTrigger::Label`].
    pub(crate) label_hits: Vec<(&'static str, u64)>,
}

pub(crate) struct Core {
    pub(crate) cfg: SimConfig,
    pub(crate) cells: Vec<CellState>,
    pub(crate) processors: Vec<Processor>,
    pub(crate) processes: Vec<Process>,
    /// The process holding the execution token, or [`NOBODY`].
    pub(crate) running: usize,
    pub(crate) live: usize,
    pub(crate) trace: Vec<crate::report::TraceEvent>,
    /// One flag per [`FaultPlan`] spec: each fault fires at most once.
    pub(crate) fault_fired: Vec<bool>,
    /// Pids killed by the fault layer, in kill order.
    pub(crate) killed: Vec<usize>,
    /// Pids retired by the virtual-time watchdog (permanently blocked).
    pub(crate) blocked: Vec<usize>,
    /// Why each watchdog-retired pid was blocked (parallel to `blocked`).
    pub(crate) blocked_kinds: Vec<crate::report::BlockedKind>,
    pub(crate) stalls_injected: u64,
    pub(crate) preempts_injected: u64,
    /// The death-notice cell, lazily allocated by the first
    /// [`Core::death_board`] call: bit `pid` is set (directly, with no
    /// cost or cache effects) when the fault layer kills `pid`, so
    /// survivors can poll for deaths with an ordinary charged load.
    pub(crate) kill_board: Option<u32>,
    /// Completed recovery handoffs, in completion order.
    pub(crate) recoveries: Vec<crate::report::RecoveryReport>,
    /// Completed lock revocation + invariant repairs, in completion order.
    pub(crate) repairs: Vec<crate::report::RepairReport>,
    /// Enqueue-to-dequeue latency samples, in completion order.
    pub(crate) latencies: Vec<crate::report::LatencySample>,
}

impl Core {
    pub(crate) fn new(cfg: SimConfig, fault_slots: usize) -> Self {
        cfg.validate();
        let n = cfg.num_processes();
        let mut processors: Vec<Processor> = (0..cfg.processors)
            .map(|cpu| {
                // Seed 0 is the canonical schedule: zero clock phase and
                // the historical rng constant, byte-for-byte. Any other
                // seed perturbs both — the clock phase changes which
                // processor `pick_next` favours (the only jitter source
                // on dedicated runs, which never rotate quanta), and the
                // rng changes quantum jitter on multiprogrammed runs.
                let mix = if cfg.seed == 0 {
                    0
                } else {
                    splitmix64(cfg.seed ^ (cpu as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f))
                };
                let mut rng = 0x9e37_79b9_7f4a_7c15 ^ (cpu as u64 + 1) ^ mix;
                if rng == 0 {
                    // Xorshift's fixed point; any nonzero constant will do.
                    rng = 0x9e37_79b9_7f4a_7c15;
                }
                Processor {
                    clock_ns: mix % 64,
                    run_queue: VecDeque::new(),
                    quantum_left_ns: cfg.quantum_ns,
                    rng,
                    preemptions: 0,
                }
            })
            .collect();
        let processes: Vec<Process> = (0..n)
            .map(|pid| {
                let cpu = pid % cfg.processors;
                processors[cpu].run_queue.push_back(pid);
                Process {
                    cpu,
                    finished: false,
                    ops: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                    cas_failures: 0,
                    steps: 0,
                    blocked_until_ns: 0,
                    finished_at_ns: 0,
                    label_hits: Vec::new(),
                }
            })
            .collect();
        Core {
            cfg,
            cells: Vec::new(),
            processors,
            processes,
            running: NOBODY,
            live: n,
            trace: Vec::new(),
            fault_fired: vec![false; fault_slots],
            killed: Vec::new(),
            blocked: Vec::new(),
            blocked_kinds: Vec::new(),
            stalls_injected: 0,
            preempts_injected: 0,
            kill_board: None,
            recoveries: Vec::new(),
            repairs: Vec::new(),
            latencies: Vec::new(),
        }
    }

    /// Returns the death-notice cell, allocating it on first use (lazily,
    /// so runs that never ask for it keep their cell ids — and therefore
    /// their traces — unchanged).
    pub(crate) fn death_board(&mut self) -> u32 {
        match self.kill_board {
            Some(cell) => cell,
            None => {
                let cell = self.alloc_cell(0);
                self.kill_board = Some(cell);
                cell
            }
        }
    }

    /// Posts `pid`'s death notice on the board (if one was requested).
    /// The bit is set directly — no cost, no cache effects — which is
    /// deterministic because the kill lands at a fixed point of the
    /// schedule; the cache model only prices reads, it never hides values,
    /// so a survivor's next charged load of the board sees the bit.
    pub(crate) fn note_death(&mut self, pid: usize) {
        if let Some(cell) = self.kill_board {
            if pid < 64 {
                self.cells[cell as usize].value |= 1 << pid;
            }
        }
    }

    /// Records that `by` absorbed the remaining share of killed process
    /// `victim`, stamping the recovery with the victim's death time and
    /// `by`'s current virtual time.
    pub(crate) fn note_recovery(&mut self, victim: usize, by: usize) {
        let cpu = self.processes[by].cpu;
        self.recoveries.push(crate::report::RecoveryReport {
            victim,
            by,
            killed_at_ns: self.processes[victim].finished_at_ns,
            recovered_at_ns: self.processors[cpu].clock_ns,
        });
    }

    /// Records an enqueue-to-dequeue latency sample on behalf of consumer
    /// `pid`: the gap between an item's stamped arrival time and `pid`'s
    /// current virtual time.
    pub(crate) fn note_latency(&mut self, pid: usize, arrival_ns: u64) {
        let cpu = self.processes[pid].cpu;
        self.latencies.push(crate::report::LatencySample {
            pid,
            arrival_ns,
            completed_at_ns: self.processors[cpu].clock_ns,
        });
    }

    /// The calling process's current virtual time (its processor's clock).
    pub(crate) fn clock_of(&self, pid: usize) -> u64 {
        self.processors[self.processes[pid].cpu].clock_ns
    }

    /// Records that `by` revoked dead process `victim`'s lock (or seized
    /// its torn critical window) and restored the protected invariant,
    /// stamping the repair with the victim's death time, `by`'s current
    /// virtual time, and the repair-outcome label `point`.
    pub(crate) fn note_repair(&mut self, victim: usize, by: usize, point: &'static str) {
        let cpu = self.processes[by].cpu;
        self.repairs.push(crate::report::RepairReport {
            victim,
            by,
            point,
            killed_at_ns: self.processes[victim].finished_at_ns,
            repaired_at_ns: self.processors[cpu].clock_ns,
        });
    }

    pub(crate) fn alloc_cell(&mut self, init: u64) -> u32 {
        let id = self.cells.len();
        assert!(id < u32::MAX as usize, "simulated memory exhausted");
        self.cells.push(CellState {
            value: init,
            sharers: SharerSet::EMPTY,
        });
        id as u32
    }

    /// Applies `op` to cell `cell` on behalf of `pid`, returning the result
    /// and the virtual-time cost under the coherence model.
    pub(crate) fn apply(&mut self, pid: usize, cell: u32, op: MemOp) -> (MemResult, u64) {
        let cfg = &self.cfg;
        let state = &mut self.cells[cell as usize];
        let process = &mut self.processes[pid];
        let cpu = process.cpu;
        let mut cost = cfg.t_local_ns;

        let is_read_only = matches!(op, MemOp::Load);
        if is_read_only {
            if state.sharers.contains(cpu) {
                cost += cfg.t_hit_ns;
                process.cache_hits += 1;
            } else {
                cost += cfg.t_miss_ns;
                process.cache_misses += 1;
            }
            state.sharers.insert(cpu);
        } else {
            let others = state.sharers.others(cpu);
            if state.sharers.is_exactly(cpu) {
                cost += cfg.t_hit_ns;
                process.cache_hits += 1;
            } else {
                cost += cfg.t_miss_ns + cfg.t_inval_ns * others;
                process.cache_misses += 1;
            }
            state.sharers = SharerSet::only(cpu);
            if !matches!(op, MemOp::Store(_)) {
                cost += cfg.t_rmw_ns;
            }
        }

        let prev = state.value;
        let mut cas_failed = false;
        let value = match op {
            MemOp::Load => Ok(prev),
            MemOp::Store(v) => {
                state.value = v;
                Ok(prev)
            }
            MemOp::CompareExchange { current, new } => {
                if prev == current {
                    state.value = new;
                    Ok(prev)
                } else {
                    cas_failed = true;
                    Err(prev)
                }
            }
            MemOp::Swap(v) => {
                state.value = v;
                Ok(prev)
            }
            MemOp::FetchAdd(d) => {
                state.value = prev.wrapping_add(d);
                Ok(prev)
            }
        };
        process.ops += 1;
        if cas_failed {
            process.cas_failures += 1;
        }
        let result = MemResult { value, cas_failed };
        if self.trace.len() < self.cfg.trace_capacity {
            self.trace.push(crate::report::TraceEvent {
                at_ns: self.processors[cpu].clock_ns,
                pid,
                processor: cpu,
                cell,
                kind: match op {
                    MemOp::Load => crate::report::TraceKind::Load,
                    MemOp::Store(_) => crate::report::TraceKind::Store,
                    MemOp::CompareExchange { .. } => crate::report::TraceKind::CompareExchange {
                        success: !cas_failed,
                    },
                    MemOp::Swap(_) => crate::report::TraceKind::Swap,
                    MemOp::FetchAdd(_) => crate::report::TraceKind::FetchAdd,
                },
            });
        }
        (result, cost)
    }

    /// Reads a cell without charging time (setup / post-run inspection).
    pub(crate) fn peek(&self, cell: u32) -> u64 {
        self.cells[cell as usize].value
    }

    /// Writes a cell without charging time (setup only).
    pub(crate) fn poke(&mut self, cell: u32, value: u64) {
        self.cells[cell as usize].value = value;
    }

    /// Advances `pid`'s processor clock by `cost` and performs quantum
    /// accounting (round-robin rotation with context-switch cost).
    pub(crate) fn charge(&mut self, pid: usize, cost: u64) {
        let cpu = self.processes[pid].cpu;
        let processor = &mut self.processors[cpu];
        processor.clock_ns += cost;
        if processor.run_queue.len() > 1 {
            processor.quantum_left_ns = processor.quantum_left_ns.saturating_sub(cost);
            if processor.quantum_left_ns == 0 {
                let front = processor.run_queue.pop_front().expect("non-empty");
                debug_assert_eq!(front, pid);
                processor.run_queue.push_back(front);
                processor.clock_ns += self.cfg.ctx_switch_ns;
                processor.quantum_left_ns = processor.next_quantum(self.cfg.quantum_ns);
                processor.preemptions += 1;
            }
        }
    }

    /// Picks the next process to hold the token: the front of the run queue
    /// of the processor whose front becomes runnable earliest (ties broken
    /// by processor index). Returns [`NOBODY`] when everything has finished.
    ///
    /// A process stalled by a fault has `blocked_until_ns` in the future:
    /// it is rotated behind runnable queue-mates (a stalled process does
    /// not hold its processor), and if *every* candidate is stalled the
    /// chosen processor idles — its clock jumps to the stall's end. With
    /// no faults every `blocked_until_ns` is zero and this reduces exactly
    /// to the historical least-advanced-clock rule.
    pub(crate) fn pick_next(&mut self) -> usize {
        for cpu in 0..self.processors.len() {
            let clock = self.processors[cpu].clock_ns;
            let queue_len = self.processors[cpu].run_queue.len();
            if queue_len < 2 {
                continue;
            }
            let any_runnable = self.processors[cpu]
                .run_queue
                .iter()
                .any(|&p| self.processes[p].blocked_until_ns <= clock);
            if !any_runnable {
                continue;
            }
            for _ in 0..queue_len {
                let front = *self.processors[cpu].run_queue.front().expect("non-empty");
                if self.processes[front].blocked_until_ns <= clock {
                    break;
                }
                let f = self.processors[cpu]
                    .run_queue
                    .pop_front()
                    .expect("non-empty");
                self.processors[cpu].run_queue.push_back(f);
            }
        }
        let mut best: Option<(u64, usize)> = None;
        for (idx, processor) in self.processors.iter().enumerate() {
            let Some(&front) = processor.run_queue.front() else {
                continue;
            };
            let ready = processor
                .clock_ns
                .max(self.processes[front].blocked_until_ns);
            match best {
                Some((best_ready, _)) if best_ready <= ready => {}
                _ => best = Some((ready, idx)),
            }
        }
        match best {
            Some((ready, cpu)) => {
                // Idle the processor through the remainder of the stall.
                if self.processors[cpu].clock_ns < ready {
                    self.processors[cpu].clock_ns = ready;
                }
                *self.processors[cpu].run_queue.front().expect("non-empty")
            }
            None => NOBODY,
        }
    }

    /// Records `pid` as watchdog-retired, classifying the failure mode:
    /// a starved process with a dead peer was (to the watchdog's best
    /// knowledge) waiting on the dead holder's resource — the repairable
    /// case — while starvation with every peer alive is live contention.
    pub(crate) fn note_blocked(&mut self, pid: usize) {
        let kind = if self.killed.is_empty() {
            crate::report::BlockedKind::LiveContention
        } else {
            crate::report::BlockedKind::DeadHolder
        };
        self.blocked.push(pid);
        self.blocked_kinds.push(kind);
    }

    pub(crate) fn remove_process(&mut self, pid: usize) {
        let cpu = self.processes[pid].cpu;
        self.processes[pid].finished = true;
        self.processes[pid].finished_at_ns = self.processors[cpu].clock_ns;
        self.processors[cpu].run_queue.retain(|&p| p != pid);
        // Reset the quantum for whoever runs next on this processor.
        let base = self.cfg.quantum_ns;
        self.processors[cpu].quantum_left_ns = self.processors[cpu].next_quantum(base);
        self.live -= 1;
    }

    /// Applies `op` with no cost, no cache effects, and no stats — the
    /// setup-mode semantics, used for post-mortem accesses from a killed
    /// process's unwind path (destructors must not deadlock on a token
    /// that will never come back).
    pub(crate) fn apply_direct(&mut self, cell: u32, op: MemOp) -> Result<u64, u64> {
        let prev = self.cells[cell as usize].value;
        match op {
            MemOp::Load => Ok(prev),
            MemOp::Store(v) | MemOp::Swap(v) => {
                self.cells[cell as usize].value = v;
                Ok(prev)
            }
            MemOp::CompareExchange { current, new } => {
                if prev == current {
                    self.cells[cell as usize].value = new;
                    Ok(prev)
                } else {
                    Err(prev)
                }
            }
            MemOp::FetchAdd(d) => {
                self.cells[cell as usize].value = prev.wrapping_add(d);
                Ok(prev)
            }
        }
    }

    /// Returns the 0-based index of this hit of `label` by `pid` and
    /// advances the per-process counter.
    pub(crate) fn next_label_hit(&mut self, pid: usize, label: &'static str) -> u64 {
        let hits = &mut self.processes[pid].label_hits;
        if let Some(entry) = hits.iter_mut().find(|(l, _)| *l == label) {
            let n = entry.1;
            entry.1 += 1;
            n
        } else {
            hits.push((label, 1));
            0
        }
    }

    /// Builds the final [`crate::report::SimReport`] from the core state.
    pub(crate) fn snapshot_report(&self) -> crate::report::SimReport {
        crate::report::SimReport {
            elapsed_ns: self
                .processors
                .iter()
                .map(|p| p.clock_ns)
                .max()
                .unwrap_or(0),
            per_processor_ns: self.processors.iter().map(|p| p.clock_ns).collect(),
            total_ops: self.processes.iter().map(|p| p.ops).sum(),
            cache_hits: self.processes.iter().map(|p| p.cache_hits).sum(),
            cache_misses: self.processes.iter().map(|p| p.cache_misses).sum(),
            cas_failures: self.processes.iter().map(|p| p.cas_failures).sum(),
            preemptions: self.processors.iter().map(|p| p.preemptions).sum(),
            per_process: self
                .processes
                .iter()
                .enumerate()
                .map(|(pid, p)| crate::report::ProcessReport {
                    pid,
                    processor: p.cpu,
                    ops: p.ops,
                    cache_hits: p.cache_hits,
                    cache_misses: p.cache_misses,
                    cas_failures: p.cas_failures,
                    finished_at_ns: p.finished_at_ns,
                })
                .collect(),
            trace: self.trace.clone(),
            killed: self.killed.clone(),
            blocked: self.blocked.clone(),
            blocked_kinds: self.blocked_kinds.clone(),
            stalls_injected: self.stalls_injected,
            preempts_injected: self.preempts_injected,
            recoveries: self.recoveries.clone(),
            repairs: self.repairs.clone(),
            latencies: self.latencies.clone(),
        }
    }
}

/// Shared scheduler state: the core under a mutex, plus the fault plan.
///
/// Every simulated process is a fiber on the thread running the
/// simulation, so the mutex is never contended during a run; it makes the
/// handle `Sync` for setup and inspection from other threads. A process
/// that finds another holding the token drops the guard and suspends to
/// the run loop ([`crate::fiber::suspend`]), which resumes the holder.
pub(crate) struct SimShared {
    core: Mutex<Core>,
    /// The run's fault schedule (immutable; empty by default). Kept outside
    /// the mutex so `fault_point` can precheck without locking.
    plan: FaultPlan,
}

impl SimShared {
    pub fn with_plan(cfg: SimConfig, plan: FaultPlan) -> Self {
        let n = cfg.num_processes();
        for spec in &plan.specs {
            assert!(
                spec.pid < n,
                "fault plan targets pid {} but the simulation has {n} processes",
                spec.pid
            );
        }
        SimShared {
            core: Mutex::new(Core::new(cfg, plan.specs.len())),
            plan,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("sim lock")
    }

    pub fn config(&self) -> SimConfig {
        self.lock().cfg
    }

    pub fn alloc_cell(&self, init: u64) -> u32 {
        self.lock().alloc_cell(init)
    }

    /// Returns the death-notice cell (allocating it on first use).
    pub fn death_board(&self) -> u32 {
        self.lock().death_board()
    }

    /// Records, on behalf of `pid`, that the remaining share of killed
    /// process `victim` has been fully absorbed. Like a fault point, the
    /// record itself is free: `pid` keeps the token and is charged
    /// nothing — the *work* of catching up was already charged op by op.
    pub fn mark_recovered(&self, pid: usize, victim: usize) {
        let Ok(mut core) = self.wait_for_token(pid) else {
            return;
        };
        core.note_recovery(victim, pid);
    }

    /// Records, on behalf of `pid`, that dead process `victim`'s lock was
    /// revoked and the torn invariant repaired (outcome label `point`).
    /// Free, exactly like [`SimShared::mark_recovered`]: the repair's
    /// memory traffic was already charged op by op.
    pub fn mark_repaired(&self, pid: usize, victim: usize, point: &'static str) {
        let Ok(mut core) = self.wait_for_token(pid) else {
            return;
        };
        core.note_repair(victim, pid, point);
    }

    /// Records an enqueue-to-dequeue latency sample on behalf of `pid`.
    /// Free, exactly like [`SimShared::mark_recovered`]: the dequeue that
    /// surfaced the item was already charged, and the stamp itself is
    /// pure observability.
    pub fn record_latency(&self, pid: usize, arrival_ns: u64) {
        let Ok(mut core) = self.wait_for_token(pid) else {
            return;
        };
        core.note_latency(pid, arrival_ns);
    }

    /// Reads `pid`'s current virtual time (its processor's clock). Free
    /// and token-keeping: a clock read touches no shared memory, so it
    /// charges nothing and does not pass the token.
    pub fn now_ns(&self, pid: usize) -> u64 {
        let (Ok(core) | Err(core)) = self.wait_for_token(pid);
        core.clock_of(pid)
    }

    /// Direct, cost-free access outside a simulated process (setup before
    /// `run`, inspection after).
    pub fn peek(&self, cell: u32) -> u64 {
        self.lock().peek(cell)
    }

    pub fn poke(&self, cell: u32, value: u64) {
        self.lock().poke(cell, value)
    }

    /// Seats the first token holder.
    pub fn start(&self) {
        let mut core = self.lock();
        core.running = core.pick_next();
    }

    /// The process the run loop must resume next: the token holder, or
    /// [`NOBODY`] once every process has retired.
    pub fn token_holder(&self) -> usize {
        self.lock().running
    }

    /// Executes one shared-memory operation on behalf of `pid`, charging
    /// virtual time and handing the token to the next process.
    ///
    /// May unwind instead of returning when the fault plan (or watchdog)
    /// kills `pid` at this step.
    pub fn mem_op(&self, pid: usize, cell: u32, op: MemOp) -> Result<u64, u64> {
        let core = match self.wait_for_token(pid) {
            Ok(core) => core,
            // An access from an unwind path: a killed process's or a
            // panicking one's.
            Err(mut core) => return core.apply_direct(cell, op),
        };
        let mut core = self.resolve_step_faults(core, pid);
        let (result, cost) = core.apply(pid, cell, op);
        self.charge_and_pass(core, pid, cost);
        result.value
    }

    /// Charges `nanos` of pure delay (backoff / "other work") to `pid`.
    ///
    /// May unwind instead of returning when the fault plan (or watchdog)
    /// kills `pid` at this step.
    pub fn delay(&self, pid: usize, nanos: u64) {
        let Ok(core) = self.wait_for_token(pid) else {
            return;
        };
        let core = self.resolve_step_faults(core, pid);
        self.charge_and_pass(core, pid, nanos);
    }

    /// Reports that `pid` reached the fault point `label`; fires any
    /// matching label-triggered faults. Free when the plan has no label
    /// faults for `pid` — no lock, no token, no virtual time.
    pub fn fault_point(&self, pid: usize, label: &'static str) {
        if !self.plan.watches_labels(pid) {
            return;
        }
        let Ok(mut core) = self.wait_for_token(pid) else {
            return;
        };
        let hit = core.next_label_hit(pid, label);
        while let Some(action) = self.take_fault(&mut core, pid, |t| {
            matches!(t, FaultTrigger::Label { label: l, occurrence }
                     if *l == label && *occurrence == hit)
        }) {
            core = self.apply_fault(core, pid, action);
        }
        // The fault point itself is free: keep the token, charge nothing.
    }

    /// Retires `pid` from the simulation. No-op for a process the fault
    /// layer already retired (kill / watchdog).
    pub fn finish(&self, pid: usize) {
        let Ok(mut core) = self.wait_for_token(pid) else {
            return;
        };
        core.remove_process(pid);
        core.running = core.pick_next();
    }

    /// Watchdog + op-count fault triggers, checked while `pid` holds the
    /// token at the top of a scheduler entry. Never returns if `pid` dies.
    fn resolve_step_faults<'a>(
        &'a self,
        mut core: MutexGuard<'a, Core>,
        pid: usize,
    ) -> MutexGuard<'a, Core> {
        let watchdog = core.cfg.watchdog_ns;
        if watchdog > 0 {
            let cpu = core.processes[pid].cpu;
            if core.processors[cpu].clock_ns >= watchdog {
                core.note_blocked(pid);
                self.kill_locked(core, pid);
            }
        }
        if !self.plan.watches(pid) {
            return core;
        }
        let step = core.processes[pid].steps;
        core.processes[pid].steps += 1;
        while let Some(action) = self.take_fault(
            &mut core,
            pid,
            |t| matches!(t, FaultTrigger::Op(n) if *n == step),
        ) {
            core = self.apply_fault(core, pid, action);
        }
        core
    }

    /// Marks the first unfired spec for `pid` whose trigger matches as
    /// fired and returns its action.
    fn take_fault(
        &self,
        core: &mut Core,
        pid: usize,
        matches: impl Fn(&FaultTrigger) -> bool,
    ) -> Option<FaultAction> {
        for (i, spec) in self.plan.specs.iter().enumerate() {
            if spec.pid == pid && !core.fault_fired[i] && matches(&spec.trigger) {
                core.fault_fired[i] = true;
                return Some(spec.action);
            }
        }
        None
    }

    /// Applies a fired fault to `pid` (which holds the token). Kill never
    /// returns; stall and preempt yield the token and re-acquire it.
    fn apply_fault<'a>(
        &'a self,
        mut core: MutexGuard<'a, Core>,
        pid: usize,
        action: FaultAction,
    ) -> MutexGuard<'a, Core> {
        match action {
            FaultAction::Kill => {
                core.killed.push(pid);
                core.note_death(pid);
                self.kill_locked(core, pid)
            }
            FaultAction::Stall { duration_ns } => {
                core.stalls_injected += 1;
                let cpu = core.processes[pid].cpu;
                let until = core.processors[cpu].clock_ns.saturating_add(duration_ns);
                core.processes[pid].blocked_until_ns = until;
                self.yield_token(core, pid)
            }
            FaultAction::Preempt => {
                core.preempts_injected += 1;
                let cpu = core.processes[pid].cpu;
                let ctx = core.cfg.ctx_switch_ns;
                let base = core.cfg.quantum_ns;
                let processor = &mut core.processors[cpu];
                processor.preemptions += 1;
                if processor.run_queue.len() > 1 {
                    let front = processor.run_queue.pop_front().expect("non-empty");
                    debug_assert_eq!(front, pid);
                    processor.run_queue.push_back(front);
                }
                processor.clock_ns += ctx;
                processor.quantum_left_ns = processor.next_quantum(base);
                self.yield_token(core, pid)
            }
        }
    }

    /// Gives up the token (if anyone else should run) and waits until the
    /// scheduler hands it back.
    fn yield_token<'a>(
        &'a self,
        mut core: MutexGuard<'a, Core>,
        pid: usize,
    ) -> MutexGuard<'a, Core> {
        core.running = core.pick_next();
        drop(core);
        let (Ok(core) | Err(core)) = self.wait_for_token(pid);
        core
    }

    /// Retires `pid` right now (fault kill or watchdog), hands the token
    /// on, and unwinds the process with the [`ProcessKilled`] sentinel.
    /// The unwind runs to the end before anyone else runs: every access
    /// on the way takes the direct path, because `pid` is now retired.
    fn kill_locked(&self, mut core: MutexGuard<'_, Core>, pid: usize) -> ! {
        core.remove_process(pid);
        core.running = core.pick_next();
        // Never unwind while holding the core mutex: that would poison the
        // whole simulation.
        drop(core);
        std::panic::resume_unwind(Box::new(ProcessKilled));
    }

    /// Collects final statistics (after the run).
    pub fn snapshot(&self) -> crate::report::SimReport {
        self.lock().snapshot_report()
    }

    /// Returns the core once `pid` holds the token (`Ok`), suspending to
    /// the run loop until it does; or at once (`Err`, the direct path)
    /// when `pid` is on an unwind path. A retired (killed) process will
    /// never be handed the token again, and a panicking one must not
    /// switch: another fiber would run inside its unwind.
    fn wait_for_token(&self, pid: usize) -> Result<MutexGuard<'_, Core>, MutexGuard<'_, Core>> {
        loop {
            let core = self.lock();
            if core.processes[pid].finished || std::thread::panicking() {
                return Err(core);
            }
            if core.running == pid {
                return Ok(core);
            }
            drop(core);
            crate::fiber::suspend();
        }
    }

    /// Charges `cost` to `pid` and seats the next token holder. `pid`
    /// runs on to its next scheduler entry either way; there it suspends
    /// if it no longer holds the token.
    fn charge_and_pass(&self, mut core: MutexGuard<'_, Core>, pid: usize, cost: u64) {
        core.charge(pid, cost);
        core.running = core.pick_next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cpu_cfg() -> SimConfig {
        SimConfig {
            processors: 2,
            ..SimConfig::default()
        }
    }

    #[test]
    fn cost_model_distinguishes_hits_and_misses() {
        let mut core = Core::new(two_cpu_cfg(), 0);
        let cell = core.alloc_cell(0);
        // First read by pid 0 (cpu 0): miss.
        let (_, c1) = core.apply(0, cell, MemOp::Load);
        assert_eq!(c1, core.cfg.t_local_ns + core.cfg.t_miss_ns);
        // Second read: hit.
        let (_, c2) = core.apply(0, cell, MemOp::Load);
        assert_eq!(c2, core.cfg.t_local_ns + core.cfg.t_hit_ns);
        // Read by pid 1 (cpu 1): miss, both now share.
        let (_, c3) = core.apply(1, cell, MemOp::Load);
        assert_eq!(c3, core.cfg.t_local_ns + core.cfg.t_miss_ns);
        // Write by pid 0 invalidates cpu 1: miss + 1 invalidation.
        let (_, c4) = core.apply(0, cell, MemOp::Store(1));
        assert_eq!(
            c4,
            core.cfg.t_local_ns + core.cfg.t_miss_ns + core.cfg.t_inval_ns
        );
        // Exclusive re-write by pid 0: hit.
        let (_, c5) = core.apply(0, cell, MemOp::Store(2));
        assert_eq!(c5, core.cfg.t_local_ns + core.cfg.t_hit_ns);
    }

    #[test]
    fn rmw_carries_surcharge_even_on_cas_failure() {
        let mut core = Core::new(two_cpu_cfg(), 0);
        let cell = core.alloc_cell(5);
        let (r, cost) = core.apply(
            0,
            cell,
            MemOp::CompareExchange {
                current: 9,
                new: 10,
            },
        );
        assert!(r.cas_failed);
        assert_eq!(r.value, Err(5));
        assert!(cost >= core.cfg.t_rmw_ns);
        assert_eq!(core.peek(cell), 5);
    }

    #[test]
    fn memory_semantics_match_atomics() {
        let mut core = Core::new(two_cpu_cfg(), 0);
        let cell = core.alloc_cell(10);
        assert_eq!(core.apply(0, cell, MemOp::FetchAdd(5)).0.value, Ok(10));
        assert_eq!(core.peek(cell), 15);
        assert_eq!(core.apply(0, cell, MemOp::Swap(1)).0.value, Ok(15));
        assert_eq!(core.peek(cell), 1);
        assert_eq!(
            core.apply(0, cell, MemOp::CompareExchange { current: 1, new: 2 })
                .0
                .value,
            Ok(1)
        );
        assert_eq!(core.peek(cell), 2);
    }

    #[test]
    fn quantum_expiry_rotates_run_queue() {
        let cfg = SimConfig {
            processors: 1,
            processes_per_processor: 2,
            quantum_ns: 100,
            ctx_switch_ns: 7,
            ..SimConfig::default()
        };
        let mut core = Core::new(cfg, 0);
        assert_eq!(core.processors[0].run_queue.front(), Some(&0));
        core.charge(0, 100); // exactly exhausts the quantum
        assert_eq!(core.processors[0].run_queue.front(), Some(&1));
        assert_eq!(core.processors[0].clock_ns, 107);
        assert_eq!(core.processors[0].preemptions, 1);
    }

    #[test]
    fn dedicated_processor_never_preempts() {
        let cfg = SimConfig {
            processors: 1,
            processes_per_processor: 1,
            quantum_ns: 10,
            ..SimConfig::default()
        };
        let mut core = Core::new(cfg, 0);
        core.charge(0, 1_000_000);
        assert_eq!(core.processors[0].preemptions, 0);
        assert_eq!(core.processors[0].run_queue.front(), Some(&0));
    }

    #[test]
    fn pick_next_prefers_least_advanced_processor() {
        let mut core = Core::new(two_cpu_cfg(), 0);
        assert_eq!(core.pick_next(), 0, "tie broken by processor index");
        core.charge(0, 50);
        assert_eq!(core.pick_next(), 1);
        core.charge(1, 200);
        assert_eq!(core.pick_next(), 0);
    }

    #[test]
    fn finished_processes_are_skipped() {
        let mut core = Core::new(two_cpu_cfg(), 0);
        core.remove_process(0);
        assert_eq!(core.pick_next(), 1);
        core.remove_process(1);
        assert_eq!(core.pick_next(), NOBODY);
        assert_eq!(core.live, 0);
    }

    #[test]
    fn seed_zero_is_the_canonical_schedule() {
        let core = Core::new(two_cpu_cfg(), 0);
        for (cpu, p) in core.processors.iter().enumerate() {
            assert_eq!(p.clock_ns, 0, "seed 0 must not phase-shift clocks");
            assert_eq!(
                p.rng,
                0x9e37_79b9_7f4a_7c15 ^ (cpu as u64 + 1),
                "seed 0 must keep the historical rng"
            );
        }
    }

    #[test]
    fn nonzero_seeds_perturb_the_schedule_deterministically() {
        let cfg = SimConfig {
            seed: 7,
            ..two_cpu_cfg()
        };
        let a = Core::new(cfg, 0);
        let b = Core::new(cfg, 0);
        for (pa, pb) in a.processors.iter().zip(&b.processors) {
            assert_eq!(pa.clock_ns, pb.clock_ns, "same seed, same schedule");
            assert_eq!(pa.rng, pb.rng);
        }
        let canonical = Core::new(two_cpu_cfg(), 0);
        let differs = a
            .processors
            .iter()
            .zip(&canonical.processors)
            .any(|(pa, pc)| pa.clock_ns != pc.clock_ns || pa.rng != pc.rng);
        assert!(differs, "seed 7 must not collapse onto the canonical run");
        for p in &a.processors {
            assert!(p.clock_ns < 64, "phase offsets stay negligible");
            assert_ne!(p.rng, 0, "xorshift state must avoid its fixed point");
        }
    }

    #[test]
    fn processes_distribute_round_robin_over_processors() {
        let cfg = SimConfig {
            processors: 3,
            processes_per_processor: 2,
            ..SimConfig::default()
        };
        let core = Core::new(cfg, 0);
        assert_eq!(core.processes[0].cpu, 0);
        assert_eq!(core.processes[1].cpu, 1);
        assert_eq!(core.processes[2].cpu, 2);
        assert_eq!(core.processes[3].cpu, 0);
        assert_eq!(core.processors[0].run_queue.len(), 2);
    }
}
