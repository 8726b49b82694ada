//! Simulator parameters.

/// Machine and scheduling parameters for a [`crate::Simulation`].
///
/// The defaults are era-plausible *ratios* rather than an attempt to clock a
/// 1995 SGI Challenge: what the reproduction must preserve is which
/// algorithm wins and by roughly what factor, and `EXPERIMENTS.md` shows the
/// figure shapes are stable under ±2× changes to these costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of simulated processors (1–256).
    pub processors: usize,
    /// Processes multiplexed on each processor. `1` reproduces the
    /// dedicated machine of Figure 3; `2` and `3` reproduce Figures 4
    /// and 5.
    pub processes_per_processor: usize,
    /// Local (non-shared-memory) work charged alongside every shared
    /// operation, covering the surrounding register instructions.
    pub t_local_ns: u64,
    /// Cost of a read that hits in the processor's cache.
    pub t_hit_ns: u64,
    /// Cost of a read or write miss.
    pub t_miss_ns: u64,
    /// Surcharge for an atomic read-modify-write (CAS, swap, fetch-and-add),
    /// successful or not — the bus still arbitrates the exclusive access.
    pub t_rmw_ns: u64,
    /// Surcharge per *other* sharer invalidated by a write or RMW; models
    /// rising miss cost under contention, which the paper singles out for
    /// the single-lock and Mellor-Crummey curves.
    pub t_inval_ns: u64,
    /// Cost of a context switch when a processor rotates to its next
    /// process.
    pub ctx_switch_ns: u64,
    /// Scheduling quantum. The paper's multiprogrammed runs used 10 ms.
    pub quantum_ns: u64,
    /// Maximum number of [`crate::TraceEvent`]s to record (0 disables
    /// tracing, the default). Tracing changes no behaviour — only the
    /// report contents.
    pub trace_capacity: usize,
    /// Schedule seed. `0` (the default) is the **canonical schedule**:
    /// byte-identical to the simulator's historical behaviour, so exact
    /// virtual-time regression tests keep passing. Any other value
    /// perturbs per-processor clock phases and quantum jitter
    /// deterministically, yielding a different — but still reproducible —
    /// legal interleaving. [`crate::schedule_sweep`] runs a closure
    /// across many seeds to sample the schedule space.
    pub seed: u64,
    /// Virtual-time watchdog limit in nanoseconds (`0`, the default,
    /// disables it). When a process's next scheduler entry finds its
    /// processor clock at or past this limit, the process is judged
    /// *permanently blocked* — the paper's "a blocked process stalls
    /// everyone" outcome — recorded in [`crate::SimReport::blocked`], and
    /// retired so the run terminates deterministically instead of hanging.
    /// Because blocked spinners keep charging virtual time (spins, backoff
    /// delays, cache misses), every stuck process trips the watchdog in
    /// bounded virtual time. Set it well above the expected faultless
    /// completion time.
    pub watchdog_ns: u64,
}

impl SimConfig {
    /// Returns the total number of simulated processes.
    pub fn num_processes(&self) -> usize {
        self.processors * self.processes_per_processor
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if there are no processors or processes, or more than 256
    /// processors (the sharer set is a fixed 256-bit mask).
    pub fn validate(&self) {
        assert!(self.processors >= 1, "need at least one processor");
        assert!(self.processors <= 256, "at most 256 processors supported");
        assert!(
            self.processes_per_processor >= 1,
            "need at least one process per processor"
        );
        assert!(self.quantum_ns > 0, "quantum must be positive");
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            processors: 1,
            processes_per_processor: 1,
            t_local_ns: 2,
            t_hit_ns: 5,
            t_miss_ns: 120,
            t_rmw_ns: 30,
            t_inval_ns: 25,
            ctx_switch_ns: 25_000,
            quantum_ns: 10_000_000,
            trace_capacity: 0,
            seed: 0,
            watchdog_ns: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_dedicated_processor() {
        let c = SimConfig::default();
        assert_eq!(c.processors, 1);
        assert_eq!(c.processes_per_processor, 1);
        assert_eq!(c.num_processes(), 1);
        c.validate();
    }

    #[test]
    fn num_processes_multiplies() {
        let c = SimConfig {
            processors: 4,
            processes_per_processor: 3,
            ..SimConfig::default()
        };
        assert_eq!(c.num_processes(), 12);
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn rejects_too_many_processors() {
        SimConfig {
            processors: 257,
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    fn accepts_data_center_scale_processor_counts() {
        for processors in [64, 128, 256] {
            SimConfig {
                processors,
                ..SimConfig::default()
            }
            .validate();
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn rejects_zero_processors() {
        SimConfig {
            processors: 0,
            ..SimConfig::default()
        }
        .validate();
    }
}
