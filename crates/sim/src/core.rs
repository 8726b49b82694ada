//! Scheduler core: virtual clocks, run queues, the coherence cost model,
//! and the token-passing protocol that sequentializes the simulated
//! processes (fibers on the thread that called `Simulation::run`).

use std::cell::Cell;
use std::collections::VecDeque;
use std::ptr;
use std::sync::{Mutex, MutexGuard, TryLockError};

use crate::config::SimConfig;
use crate::fault::{FaultAction, FaultPlan, FaultTrigger};
use crate::fiber::{self, Fiber, Handle};

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

/// Width of the processor index in a [`PickTree`] rank: the simulator has
/// at most 256 processors (see [`SimConfig::validate`]).
const CPU_BITS: u32 = 8;

/// Rank bit of a processor whose run queue is empty: above every ready
/// time, a stall saturated at `u64::MAX` included, so it ranks last.
const IDLE: u128 = 1 << (64 + CPU_BITS);

/// Winner (tournament) tree over the processors. A processor's rank packs
/// `(ready_ns, cpu)` into one integer, the ready time above the index and
/// [`IDLE`] above both, so `min` orders by ready time and breaks ties by
/// the lowest index.
///
/// `ranks` is a complete binary tree of fixed shape with `leaves =
/// next_pow2(processors)` leaves: node 1 is the root, node `n` has the
/// children `2n` and `2n + 1`, and leaf `cpu` is node `leaves + cpu`
/// (the padding leaves past the last processor rank [`IDLE`]). Every node
/// holds the least rank in its subtree, so changing one leaf replays only
/// the ≤ log2(leaves) matches on its path to the root.
struct PickTree {
    ranks: Vec<u128>,
}

impl PickTree {
    /// A tree over `processors` processors, every one ranked [`IDLE`].
    fn new(processors: usize) -> Self {
        let leaves = processors.next_power_of_two();
        let mut ranks = vec![IDLE; 2 * leaves];
        for cpu in 0..leaves {
            ranks[leaves + cpu] |= cpu as u128;
        }
        for node in (1..leaves).rev() {
            ranks[node] = ranks[2 * node].min(ranks[2 * node + 1]);
        }
        PickTree { ranks }
    }

    /// Ranks `cpu` by `ready_ns` (`None` for an empty run queue) and
    /// replays the matches on its path to the root.
    fn update(&mut self, cpu: usize, ready_ns: Option<u64>) {
        let mut node = self.ranks.len() / 2 + cpu;
        let mut rank = ready_ns.map_or(IDLE, |ready| u128::from(ready) << CPU_BITS) | cpu as u128;
        self.ranks[node] = rank;
        while node > 1 {
            // The parent's subtree least: this side's, or the sibling's.
            rank = rank.min(self.ranks[node ^ 1]);
            node /= 2;
            self.ranks[node] = rank;
        }
    }

    /// The winning processor and its ready time, or `None` once every run
    /// queue is empty.
    fn min(&self) -> Option<(usize, u64)> {
        let root = self.ranks[1];
        let cpu = (root & ((1 << CPU_BITS) - 1)) as usize;
        (root < IDLE).then_some((cpu, (root >> CPU_BITS) as u64))
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
    /// Private with `processes` and `pick`: every change to a clock, a
    /// run queue or a stall goes through a method that re-ranks the
    /// processor ([`Core::refresh`]).
    processors: Vec<Processor>,
    processes: Vec<Process>,
    pick: PickTree,
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
        let mut core = Core {
            cfg,
            cells: Vec::new(),
            pick: PickTree::new(processors.len()),
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
        };
        for cpu in 0..core.processors.len() {
            core.refresh(cpu);
        }
        core
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

    /// Advances `pid`'s processor clock by `cost` and performs quantum
    /// accounting (round-robin rotation with context-switch cost).
    pub(crate) fn charge(&mut self, pid: usize, cost: u64) {
        let cpu = self.processes[pid].cpu;
        let processor = &mut self.processors[cpu];
        processor.clock_ns += cost;
        if processor.run_queue.len() > 1 {
            processor.quantum_left_ns = processor.quantum_left_ns.saturating_sub(cost);
            if processor.quantum_left_ns == 0 {
                debug_assert_eq!(processor.run_queue.front(), Some(&pid));
                self.switch_context(cpu);
            }
        }
        self.refresh(cpu);
    }

    /// Stalls `pid` (a [`FaultAction::Stall`]): it may not run until its
    /// processor's clock has advanced `duration_ns`, saturating at
    /// `u64::MAX`.
    pub(crate) fn stall(&mut self, pid: usize, duration_ns: u64) {
        self.stalls_injected += 1;
        let cpu = self.processes[pid].cpu;
        self.processes[pid].blocked_until_ns =
            self.processors[cpu].clock_ns.saturating_add(duration_ns);
        self.refresh(cpu);
    }

    /// Preempts `pid` (a [`FaultAction::Preempt`]): an early quantum
    /// expiry, charged even when `pid` has its processor to itself.
    pub(crate) fn preempt(&mut self, pid: usize) {
        self.preempts_injected += 1;
        let cpu = self.processes[pid].cpu;
        debug_assert_eq!(self.processors[cpu].run_queue.front(), Some(&pid));
        self.switch_context(cpu);
        self.refresh(cpu);
    }

    /// Ends the quantum of `cpu`'s front process: it moves behind its
    /// queue-mates, and the processor pays a context switch and draws a
    /// fresh quantum.
    fn switch_context(&mut self, cpu: usize) {
        let base = self.cfg.quantum_ns;
        let processor = &mut self.processors[cpu];
        processor.run_queue.rotate_left(1);
        processor.clock_ns += self.cfg.ctx_switch_ns;
        processor.quantum_left_ns = processor.next_quantum(base);
        processor.preemptions += 1;
    }

    /// Re-ranks `cpu` after a change to its clock, its run queue or a
    /// queued process's stall. First a stalled front moves behind its
    /// queue-mates, up to the first runnable one (a stalled process does
    /// not hold its processor); if none is runnable the queue stays as it
    /// is. Then `cpu` is ranked by the time its front can run:
    /// `max(clock, front's stall end)`. Every such change touches only the
    /// token holder's processor and a pick follows it, so rotating here,
    /// one processor at a time, gives the rotations a pass over every
    /// processor at every pick would.
    fn refresh(&mut self, cpu: usize) {
        let processor = &mut self.processors[cpu];
        let clock = processor.clock_ns;
        let processes = &self.processes;
        let stall_end = |p: &usize| processes[*p].blocked_until_ns;
        let mut ready_ns = processor
            .run_queue
            .front()
            .map(|front| clock.max(stall_end(front)));
        if ready_ns > Some(clock) {
            // A stalled front: the first runnable queue-mate takes its place.
            if let Some(first) = processor
                .run_queue
                .iter()
                .position(|p| stall_end(p) <= clock)
            {
                processor.run_queue.rotate_left(first);
                ready_ns = Some(clock);
            }
        }
        self.pick.update(cpu, ready_ns);
    }

    /// Seats the next token holder ([`Core::pick_next`]).
    pub(crate) fn pass_token(&mut self) {
        self.running = self.pick_next();
    }

    /// Picks the next process to hold the token: the front of the run queue
    /// of the processor whose front becomes runnable earliest (ties broken
    /// by processor index). Returns [`NOBODY`] when everything has finished.
    ///
    /// O(1): the pick tree's root is that processor, because every change
    /// to a clock, a run queue or a stall re-ranked its processor
    /// ([`Core::refresh`]) as it happened. A process stalled by a fault has
    /// `blocked_until_ns` in the future and was rotated behind runnable
    /// queue-mates; if *every* process on the chosen processor is stalled,
    /// the processor idles — its clock jumps to the stall's end, which
    /// leaves its rank unchanged. With no faults every `blocked_until_ns` is
    /// zero and this is exactly the least-advanced-clock rule.
    pub(crate) fn pick_next(&mut self) -> usize {
        let Some((cpu, ready)) = self.pick.min() else {
            return NOBODY;
        };
        let processor = &mut self.processors[cpu];
        processor.clock_ns = processor.clock_ns.max(ready);
        *processor
            .run_queue
            .front()
            .expect("a ranked processor has a process queued")
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
        self.refresh(cpu);
    }

    /// Applies `op` with no cost, no cache effects, and no stats — the
    /// setup-mode semantics, also used for post-mortem accesses from a
    /// killed process's unwind path (destructors must not deadlock on a
    /// token that will never come back).
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

/// What this thread is running: one simulation's core, locked by
/// [`SimShared::drive`] for the whole run, and which of its processes
/// executes. Outside a run `sim` is null and `seeds` is the thread's own
/// jitter-seed counter.
#[derive(Clone, Copy)]
struct RunRecord {
    /// The running simulation: the identity [`SimShared::bound`] compares.
    sim: *const SimShared,
    /// Its core, inside the mutex `drive` holds locked.
    core: *mut Core,
    /// Its processes' seats, indexed by pid.
    seats: *const [Seat],
    /// The process executing on this thread.
    pid: usize,
    /// That process's jitter-seed counter.
    seeds: u64,
}

/// A process's place in a run, kept by [`SimShared::drive`] for the run's
/// length (not in [`Core`], so building a simulation allocates nothing
/// more for it).
struct Seat {
    fiber: Handle,
    /// The jitter seeds the process had drawn when it last gave up the
    /// thread; while it runs, the run record holds the live count.
    seeds: Cell<u64>,
}

thread_local! {
    static RUN: Cell<RunRecord> = const {
        Cell::new(RunRecord {
            sim: ptr::null(),
            core: ptr::null_mut(),
            seats: ptr::slice_from_raw_parts(ptr::NonNull::dangling().as_ptr(), 0),
            pid: NOBODY,
            seeds: 0,
        })
    };
}

/// Binds this thread's run record to process `pid`, parking the
/// jitter-seed counter of the process it named before in that process's
/// seat, and returns `pid`'s fiber. Only inside [`SimShared::drive`].
fn bind(pid: usize) -> Handle {
    let record = RUN.get();
    // SAFETY: the record names a seat table only while `drive` keeps it
    // alive in its frame, and `drive` never borrows it mutably; outside a
    // run it names an empty, well-aligned slice.
    let seats = unsafe { &*record.seats };
    if let Some(seat) = seats.get(record.pid) {
        seat.seeds.set(record.seeds);
    }
    RUN.set(RunRecord {
        pid,
        seeds: seats[pid].seeds.get(),
        ..record
    });
    seats[pid].fiber
}

/// Puts the outer run record back when [`SimShared::drive`] ends, even by
/// unwinding, so the record never names a core whose lock was released.
struct RestoreRecord(RunRecord);

impl Drop for RestoreRecord {
    fn drop(&mut self) {
        RUN.set(self.0);
    }
}

/// Shared scheduler state: the core under a mutex, plus the fault plan.
///
/// The mutex serves setup and inspection, from any thread. During a run
/// the thread inside [`SimShared::drive`] owns the core: it holds the lock
/// for the whole run and publishes the core in its run record, so every
/// per-op method reaches it with one pointer compare
/// ([`SimShared::bound`]), and a process that finds the token elsewhere
/// switches straight to the holder's fiber. A call from any other thread
/// during a run fails `try_lock` and panics with the single-owner rule; it
/// never races and never blocks.
pub(crate) struct SimShared {
    core: Mutex<Core>,
    /// The run's fault schedule (immutable; empty by default). Kept outside
    /// the mutex so `fault_point` can precheck without touching the core.
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

    /// The process executing on this thread, when this thread is running
    /// this simulation; `None` for setup, inspection, and calls from
    /// another simulation's processes.
    pub fn bound(&self) -> Option<usize> {
        let record = RUN.get();
        ptr::eq(record.sim, self).then_some(record.pid)
    }

    /// Runs `f` on the core of this thread's run. Only for a process of
    /// this simulation (after [`SimShared::bound`]).
    fn with_core<R>(&self, f: impl FnOnce(&mut Core) -> R) -> R {
        let record = RUN.get();
        debug_assert!(ptr::eq(record.sim, self), "core reached outside its run");
        // SAFETY: `record.core` points into the mutex `drive` keeps locked
        // until after it takes the record down, so it is valid. The borrow
        // is the only `&mut Core`: one fiber runs at a time, the run loop
        // touches the core only while every fiber is parked, and each `f`
        // calls only `Core` methods, which neither switch fibers nor
        // re-enter `SimShared`, so no other borrow starts before it ends.
        unsafe { f(&mut *record.core) }
    }

    /// The core for setup or inspection. During a run the owning thread
    /// holds the lock, so a call from anywhere but the run's own processes
    /// panics here (the single-owner rule) instead of racing or blocking.
    fn setup(&self) -> MutexGuard<'_, Core> {
        match self.core.try_lock() {
            Ok(core) => core,
            Err(TryLockError::WouldBlock) => panic!(
                "msq-sim single-owner rule: a running simulation is owned by the thread inside \
                 `Simulation::run`, and only its own processes may use its cells and platform \
                 until the run returns (nor may the values `alloc_cells` pulls during setup use \
                 them)"
            ),
            Err(TryLockError::Poisoned(_)) => panic!("sim lock poisoned by an earlier panic"),
        }
    }

    /// Runs `f` on the core: directly for a process of this simulation,
    /// under the lock for setup and inspection.
    fn access<R>(&self, f: impl FnOnce(&mut Core) -> R) -> R {
        if self.bound().is_some() {
            self.with_core(f)
        } else {
            f(&mut self.setup())
        }
    }

    pub fn config(&self) -> SimConfig {
        self.access(|core| core.cfg)
    }

    pub fn alloc_cell(&self, init: u64) -> u32 {
        self.access(|core| core.alloc_cell(init))
    }

    /// Allocates one cell per value of `inits`, handing each new id to
    /// `each` in order: the ids that one [`SimShared::alloc_cell`] call per
    /// value would return. Setup takes the lock once for the whole array,
    /// so there `inits` must not use this simulation (the nested call
    /// panics); a process of the run allocates value by value, so `inits`
    /// never runs inside a core borrow.
    pub fn alloc_cells(&self, inits: impl Iterator<Item = u64>, mut each: impl FnMut(u32)) {
        if self.bound().is_some() {
            inits.for_each(|init| each(self.with_core(|core| core.alloc_cell(init))));
        } else {
            let mut core = self.setup();
            inits.for_each(|init| each(core.alloc_cell(init)));
        }
    }

    /// Returns the death-notice cell (allocating it on first use).
    pub fn death_board(&self) -> u32 {
        self.access(Core::death_board)
    }

    /// Draws the next jitter-seed counter value (the running process's
    /// own, or the thread's outside a run) and the pid it belongs to.
    pub fn next_seed(&self) -> (Option<usize>, u64) {
        let record = RUN.get();
        RUN.set(RunRecord {
            seeds: record.seeds + 1,
            ..record
        });
        (
            ptr::eq(record.sim, self).then_some(record.pid),
            record.seeds,
        )
    }

    /// Runs `f` for the calling process once it holds the token, and keeps
    /// the token: a free record (no-op outside a simulated process or on
    /// an unwind path).
    fn stamp(&self, f: impl FnOnce(&mut Core, usize)) {
        if let Some(pid) = self.bound() {
            if self.wait_for_token(pid) {
                self.with_core(|core| f(core, pid));
            }
        }
    }

    /// Records, on behalf of the calling process, that the remaining share
    /// of killed process `victim` has been fully absorbed. Like a fault
    /// point, the record itself is free: the caller keeps the token and is
    /// charged nothing — the *work* of catching up was already charged op
    /// by op.
    pub fn mark_recovered(&self, victim: usize) {
        self.stamp(|core, pid| core.note_recovery(victim, pid));
    }

    /// Records, on behalf of the calling process, that dead process
    /// `victim`'s lock was revoked and the torn invariant repaired (outcome
    /// label `point`). Free, exactly like [`SimShared::mark_recovered`]:
    /// the repair's memory traffic was already charged op by op.
    pub fn mark_repaired(&self, victim: usize, point: &'static str) {
        self.stamp(|core, pid| core.note_repair(victim, pid, point));
    }

    /// Records an enqueue-to-dequeue latency sample on behalf of the
    /// calling process. Free, exactly like [`SimShared::mark_recovered`]:
    /// the dequeue that surfaced the item was already charged, and the
    /// stamp itself is pure observability.
    pub fn record_latency(&self, arrival_ns: u64) {
        self.stamp(|core, pid| core.note_latency(pid, arrival_ns));
    }

    /// Reads the calling process's virtual time (its processor's clock);
    /// zero outside a simulated process, since setup is untimed. Free and
    /// token-keeping: a clock read touches no shared memory, so it charges
    /// nothing and does not pass the token.
    pub fn now_ns(&self) -> u64 {
        let Some(pid) = self.bound() else {
            return 0;
        };
        self.wait_for_token(pid);
        self.with_core(|core| core.clock_of(pid))
    }

    /// Executes one shared-memory operation on behalf of the calling
    /// process, charging virtual time and handing the token to the next
    /// process. Outside a simulated process (setup, inspection) it
    /// applies at once, free of charge.
    ///
    /// May unwind instead of returning when the fault plan (or watchdog)
    /// kills the caller at this step.
    pub fn mem_op(&self, cell: u32, op: MemOp) -> Result<u64, u64> {
        let Some(pid) = self.bound() else {
            return self.setup().apply_direct(cell, op);
        };
        if !self.wait_for_token(pid) {
            // An access from an unwind path: a killed process's or a
            // panicking one's.
            return self.with_core(|core| core.apply_direct(cell, op));
        }
        self.resolve_step_faults(pid);
        self.with_core(|core| {
            let (result, cost) = core.apply(pid, cell, op);
            core.charge(pid, cost);
            core.pass_token();
            result.value
        })
    }

    /// Charges `nanos` of pure delay (backoff / "other work") to the
    /// calling process; free outside one, since setup time is untimed.
    ///
    /// May unwind instead of returning when the fault plan (or watchdog)
    /// kills the caller at this step.
    pub fn delay(&self, nanos: u64) {
        let Some(pid) = self.bound() else {
            return;
        };
        if !self.wait_for_token(pid) {
            return;
        }
        self.resolve_step_faults(pid);
        self.with_core(|core| {
            core.charge(pid, nanos);
            core.pass_token();
        });
    }

    /// Reports that the calling process reached the fault point `label`;
    /// fires any matching label-triggered faults. Free when the plan has no
    /// label faults for the caller — no token, no virtual time.
    pub fn fault_point(&self, label: &'static str) {
        let Some(pid) = self.bound() else {
            return;
        };
        if !self.plan.watches_labels(pid) || !self.wait_for_token(pid) {
            return;
        }
        let hit = self.with_core(|core| core.next_label_hit(pid, label));
        while let Some(action) = self.take_fault(pid, |t| {
            matches!(t, FaultTrigger::Label { label: l, occurrence }
                     if *l == label && *occurrence == hit)
        }) {
            self.apply_fault(pid, action);
        }
        // The fault point itself is free: keep the token, charge nothing.
    }

    /// Retires `pid` from the simulation. No-op for a process the fault
    /// layer already retired (kill / watchdog).
    pub fn finish(&self, pid: usize) {
        if self.wait_for_token(pid) {
            self.with_core(|core| {
                core.remove_process(pid);
                core.pass_token();
            });
        }
    }

    /// Watchdog + op-count fault triggers, checked while `pid` holds the
    /// token at the top of a scheduler entry. Never returns if `pid` dies.
    fn resolve_step_faults(&self, pid: usize) {
        let expired = self.with_core(|core| {
            let watchdog = core.cfg.watchdog_ns;
            watchdog > 0 && core.clock_of(pid) >= watchdog
        });
        if expired {
            self.with_core(|core| core.note_blocked(pid));
            self.kill(pid);
        }
        if !self.plan.watches(pid) {
            return;
        }
        let step = self.with_core(|core| {
            let process = &mut core.processes[pid];
            process.steps += 1;
            process.steps - 1
        });
        while let Some(action) =
            self.take_fault(pid, |t| matches!(t, FaultTrigger::Op(n) if *n == step))
        {
            self.apply_fault(pid, action);
        }
    }

    /// Marks the first unfired spec for `pid` whose trigger matches as
    /// fired and returns its action.
    fn take_fault(
        &self,
        pid: usize,
        matches: impl Fn(&FaultTrigger) -> bool,
    ) -> Option<FaultAction> {
        self.with_core(|core| {
            for (i, spec) in self.plan.specs.iter().enumerate() {
                if spec.pid == pid && !core.fault_fired[i] && matches(&spec.trigger) {
                    core.fault_fired[i] = true;
                    return Some(spec.action);
                }
            }
            None
        })
    }

    /// Applies a fired fault to `pid` (which holds the token). Kill never
    /// returns; stall and preempt yield the token and re-acquire it.
    fn apply_fault(&self, pid: usize, action: FaultAction) {
        match action {
            FaultAction::Kill => {
                self.with_core(|core| {
                    core.killed.push(pid);
                    core.note_death(pid);
                });
                self.kill(pid)
            }
            FaultAction::Stall { duration_ns } => {
                self.with_core(|core| core.stall(pid, duration_ns));
                self.yield_token(pid)
            }
            FaultAction::Preempt => {
                self.with_core(|core| core.preempt(pid));
                self.yield_token(pid)
            }
        }
    }

    /// Gives up the token (if anyone else should run) and waits until the
    /// scheduler hands it back.
    fn yield_token(&self, pid: usize) {
        self.with_core(Core::pass_token);
        self.wait_for_token(pid);
    }

    /// Retires `pid` right now (fault kill or watchdog), hands the token
    /// on, and unwinds the process with the [`ProcessKilled`] sentinel.
    /// The unwind runs to the end before anyone else runs: every access
    /// on the way takes the direct path, because `pid` is now retired.
    fn kill(&self, pid: usize) -> ! {
        self.with_core(|core| {
            core.remove_process(pid);
            core.pass_token();
        });
        std::panic::resume_unwind(Box::new(ProcessKilled));
    }

    /// Returns `true` once `pid` holds the token, switching to the holder
    /// until it does; or `false` at once (the direct path) when `pid` is
    /// on an unwind path. A retired (killed) process will never be handed
    /// the token again, and a panicking one must not switch: another
    /// fiber would run inside its unwind.
    fn wait_for_token(&self, pid: usize) -> bool {
        loop {
            let (finished, holder) =
                self.with_core(|core| (core.processes[pid].finished, core.running));
            if finished || std::thread::panicking() {
                return false;
            }
            if holder == pid {
                return true;
            }
            self.switch_to(holder);
        }
    }

    /// Hands this thread to the token holder `holder`: binds the run
    /// record to it and switches straight to its fiber. Returns once a
    /// process hands the thread back.
    fn switch_to(&self, holder: usize) {
        let fiber = bind(holder);
        // SAFETY: `fiber` belongs to this run, whose fibers outlive it.
        // `holder` was seated by the scheduler, which never seats a
        // retired process, so its fiber has not finished; and it is not
        // running, since the caller's is. No `&mut Core` is live across
        // the switch: no caller of this holds one, and each fetches the
        // core afresh after it.
        unsafe { fiber::switch_to(fiber) };
    }

    /// Runs the simulation's processes, one fiber per pid, to the end and
    /// returns the report. The core stays locked for the whole run and is
    /// published in this thread's run record. This loop seats the first
    /// token holder and takes control back each time a fiber finishes;
    /// between those, processes hand the token to each other directly.
    ///
    /// # Panics
    ///
    /// Panics if another thread holds the core's lock (setup or
    /// inspection in progress there).
    pub fn drive(&self, fibers: &mut [Fiber<'_>]) -> crate::report::SimReport {
        let mut guard = self.setup();
        let core: *mut Core = &mut *guard;
        let seats: Vec<Seat> = fibers
            .iter()
            .map(|fiber| Seat {
                fiber: fiber.handle(),
                seeds: Cell::new(0),
            })
            .collect();
        let restore = RestoreRecord(RUN.replace(RunRecord {
            sim: self,
            core,
            seats: &raw const *seats,
            pid: NOBODY,
            seeds: 0,
        }));
        // SAFETY: `core` points into the locked mutex, and no fiber has
        // started, so this is the only `&mut Core`.
        unsafe { (*core).pass_token() };
        loop {
            // SAFETY: `core` points into the locked mutex. Every fiber is
            // parked or finished while this loop runs, so no `&mut Core`
            // is live during this read.
            let pid = unsafe { (*core).running };
            if pid == NOBODY {
                break;
            }
            bind(pid);
            fibers[pid].resume();
        }
        drop(restore);
        guard.snapshot_report()
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
        assert_eq!(core.cells[cell as usize].value, 5);
    }

    #[test]
    fn memory_semantics_match_atomics() {
        let mut core = Core::new(two_cpu_cfg(), 0);
        let cell = core.alloc_cell(10);
        assert_eq!(core.apply(0, cell, MemOp::FetchAdd(5)).0.value, Ok(10));
        assert_eq!(core.cells[cell as usize].value, 15);
        assert_eq!(core.apply(0, cell, MemOp::Swap(1)).0.value, Ok(15));
        assert_eq!(core.cells[cell as usize].value, 1);
        assert_eq!(
            core.apply(0, cell, MemOp::CompareExchange { current: 1, new: 2 })
                .0
                .value,
            Ok(1)
        );
        assert_eq!(core.cells[cell as usize].value, 2);
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

    /// The two-pass rule the pick tree replaced, kept as the reference:
    /// the least `(max(clock, front's stall end), cpu)` over the processors
    /// with a process queued, or [`NOBODY`].
    fn reference_pick(core: &Core) -> usize {
        let mut best: Option<(u64, usize)> = None;
        for (cpu, processor) in core.processors.iter().enumerate() {
            let Some(&front) = processor.run_queue.front() else {
                continue;
            };
            let ready = processor
                .clock_ns
                .max(core.processes[front].blocked_until_ns);
            if best.is_none_or(|(best_ready, _)| ready < best_ready) {
                best = Some((ready, cpu));
            }
        }
        best.map_or(NOBODY, |(_, cpu)| core.processors[cpu].run_queue[0])
    }

    /// The reference's first pass left no processor with a stalled front
    /// while a queue-mate is runnable. Checked on every processor, so a
    /// change that skips [`Core::refresh`] fails here.
    fn assert_no_stalled_front_ahead_of_a_runnable_mate(core: &Core) {
        for (cpu, processor) in core.processors.iter().enumerate() {
            let runnable = |p: &usize| core.processes[*p].blocked_until_ns <= processor.clock_ns;
            if processor.run_queue.iter().any(runnable) {
                assert!(
                    runnable(&processor.run_queue[0]),
                    "cpu {cpu}: stalled front ahead of a runnable queue-mate"
                );
            }
        }
    }

    /// Drives a `Core` with random charges (crossing quantum expiries),
    /// stalls, preempts and retirements until every process has retired,
    /// checking the pick tree against the reference before every pick.
    /// Returns how many processes were retired on a processor idled to
    /// `u64::MAX` by a saturated stall.
    fn drive_scheduler(processors: usize, processes_per_processor: usize, seed: u64) -> u64 {
        let cfg = SimConfig {
            processors,
            processes_per_processor,
            quantum_ns: 2_000,
            ctx_switch_ns: 100,
            seed,
            ..SimConfig::default()
        };
        let mut core = Core::new(cfg, 0);
        let mut rng = seed;
        let mut draw = |bound: u64| {
            rng = splitmix64(rng);
            rng % bound
        };
        // Scheduler entries each process makes before it finishes.
        let mut entries_left: Vec<u64> = (0..cfg.num_processes()).map(|_| draw(12)).collect();
        let mut retired_at_end_of_time = 0;
        loop {
            assert_no_stalled_front_ahead_of_a_runnable_mate(&core);
            let expected = reference_pick(&core);
            let pid = core.pick_next();
            assert_eq!(
                pid, expected,
                "{processors}x{processes_per_processor}, seed {seed}"
            );
            if pid == NOBODY {
                break;
            }
            if core.clock_of(pid) == u64::MAX {
                // Retire it as the watchdog would: a charge would overflow.
                retired_at_end_of_time += 1;
                core.remove_process(pid);
            } else if entries_left[pid] == 0 {
                core.remove_process(pid);
            } else {
                entries_left[pid] -= 1;
                match draw(16) {
                    0 if draw(4) == 0 => core.stall(pid, u64::MAX),
                    0 => core.stall(pid, draw(6_000)),
                    1 => core.preempt(pid),
                    _ => core.charge(pid, 1 + draw(3_000)),
                }
            }
        }
        assert_eq!(core.live, 0);
        retired_at_end_of_time
    }

    /// Runs [`drive_scheduler`] over `seeds` seeds at each processor count,
    /// dedicated and three processes per processor, and checks that some
    /// stall saturated at `u64::MAX` at every shape.
    fn sweep_scheduler(processor_counts: &[usize], seeds: u64) {
        for &processors in processor_counts {
            for processes_per_processor in [1, 3] {
                let saturated: u64 = (0..seeds)
                    .map(|seed| drive_scheduler(processors, processes_per_processor, seed))
                    .sum();
                assert!(
                    saturated > 0,
                    "{processors}x{processes_per_processor}: no stall saturated at u64::MAX"
                );
            }
        }
    }

    #[test]
    fn pick_tree_matches_the_two_pass_rule_under_random_scheduling() {
        sweep_scheduler(&[1, 2, 3, 64], 24);
    }

    #[test]
    fn pick_tree_matches_the_two_pass_rule_at_the_256_processor_ceiling() {
        sweep_scheduler(&[256], 8);
    }
}
