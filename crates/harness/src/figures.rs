//! Figure sweeps and report formatting.

use msq_sim::{FaultPlan, SimConfig};

use crate::registry::Algorithm;
use crate::scenario::{run_scenario_simulated, PairedScenario};
use crate::workload::{MeasuredPoint, WorkloadConfig};

/// Which of the paper's figures to regenerate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FigureSpec {
    /// Paper figure number (3, 4, or 5).
    pub id: u8,
    /// Processes multiplexed per processor (1, 2, or 3).
    pub processes_per_processor: usize,
}

/// Returns the spec for paper figure `id`.
///
/// # Panics
///
/// Panics if `id` is not 3, 4, or 5 (the paper has exactly those figures).
pub fn figure_spec(id: u8) -> FigureSpec {
    match id {
        3 => FigureSpec {
            id: 3,
            processes_per_processor: 1,
        },
        4 => FigureSpec {
            id: 4,
            processes_per_processor: 2,
        },
        5 => FigureSpec {
            id: 5,
            processes_per_processor: 3,
        },
        other => panic!("the paper has figures 3-5, not figure {other}"),
    }
}

/// The machine the figures run on for a `pairs`-pair workload. The
/// quantum is `quantum_ns` when given, else the paper's 10 ms scaled by
/// `pairs` / 10^6 (at least 20 µs), so a scaled-down run still lives
/// through many quanta and multiprogramming still bites. The context
/// switch is 1/400 of the quantum (the paper's 25 µs : 10 ms), at least
/// 200 ns.
pub fn figure_machine(pairs: u64, quantum_ns: Option<u64>) -> SimConfig {
    let quantum_ns = quantum_ns.unwrap_or((10_000_000 * pairs / 1_000_000).max(20_000));
    SimConfig {
        quantum_ns,
        ctx_switch_ns: (quantum_ns / 400).max(200),
        ..SimConfig::default()
    }
}

/// One measured cell of a figure.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// The queue algorithm.
    pub algorithm: Algorithm,
    /// Points, one per processor count, in sweep order.
    pub points: Vec<MeasuredPoint>,
}

/// A regenerated figure: net time for every algorithm across the
/// processor sweep.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Which figure this is.
    pub spec: FigureSpec,
    /// The processor counts swept.
    pub processors: Vec<usize>,
    /// One row per algorithm, in the paper's legend order.
    pub rows: Vec<FigureRow>,
}

/// Regenerates one figure by sweeping `processors` for every algorithm.
///
/// `base` supplies the machine cost model; its `processors` and
/// `processes_per_processor` fields are overridden per sweep point.
pub fn run_figure(
    spec: FigureSpec,
    processors: &[usize],
    base: SimConfig,
    workload: &WorkloadConfig,
    mut progress: impl FnMut(Algorithm, usize),
) -> FigureData {
    let mut rows = Vec::new();
    for algorithm in Algorithm::ALL {
        let mut points = Vec::new();
        for &p in processors {
            progress(algorithm, p);
            let sim_config = SimConfig {
                processors: p,
                processes_per_processor: spec.processes_per_processor,
                ..base
            };
            let scenario = PairedScenario {
                workload: *workload,
            };
            let out = run_scenario_simulated(algorithm, sim_config, scenario, FaultPlan::new());
            points.push(out.point.point);
        }
        rows.push(FigureRow { algorithm, points });
    }
    FigureData {
        spec,
        processors: processors.to_vec(),
        rows,
    }
}

impl FigureData {
    /// Renders the figure as a Markdown table of net seconds per 10^6
    /// enqueue/dequeue pairs (the paper's y-axis).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "### Figure {}: net time (s) per 10^6 pairs, {} process(es) per processor\n\n",
            self.spec.id, self.spec.processes_per_processor
        ));
        out.push_str("| processors |");
        for row in &self.rows {
            out.push_str(&format!(" {} |", row.algorithm.label()));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.rows {
            out.push_str("---|");
        }
        out.push('\n');
        for (i, &p) in self.processors.iter().enumerate() {
            out.push_str(&format!("| {p} |"));
            for row in &self.rows {
                out.push_str(&format!(
                    " {:.3} |",
                    row.points[i].net_secs_per_million_pairs()
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the figure as CSV (`processors,algorithm,net_secs,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "figure,processors,processes,algorithm,pairs,elapsed_ns,net_ns,net_secs_per_million,miss_rate,cas_failures,preemptions\n",
        );
        for row in &self.rows {
            for point in &row.points {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{:.6},{:.6},{},{}\n",
                    self.spec.id,
                    point.processors,
                    point.processes,
                    point.algorithm.label(),
                    point.pairs,
                    point.elapsed_ns,
                    point.net_ns,
                    point.net_secs_per_million_pairs(),
                    point.miss_rate,
                    point.cas_failures,
                    point.preemptions,
                ));
            }
        }
        out
    }

    /// The net time for `algorithm` at `processors`, if measured.
    pub fn net_secs(&self, algorithm: Algorithm, processors: usize) -> Option<f64> {
        let idx = self.processors.iter().position(|&p| p == processors)?;
        let row = self.rows.iter().find(|r| r.algorithm == algorithm)?;
        Some(row.points[idx].net_secs_per_million_pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_specs_match_the_paper() {
        assert_eq!(figure_spec(3).processes_per_processor, 1);
        assert_eq!(figure_spec(4).processes_per_processor, 2);
        assert_eq!(figure_spec(5).processes_per_processor, 3);
    }

    #[test]
    fn figure_machine_scales_the_paper_quantum() {
        let machine = |pairs, quantum| {
            let cfg = figure_machine(pairs, quantum);
            (cfg.quantum_ns, cfg.ctx_switch_ns)
        };
        assert_eq!(machine(1_000_000, None), (10_000_000, 25_000));
        assert_eq!(machine(20_000, None), (200_000, 500));
        assert_eq!(machine(500, None), (20_000, 200), "both floors");
        assert_eq!(machine(20_000, Some(40_000)), (40_000, 200));
    }

    #[test]
    #[should_panic(expected = "figures 3-5")]
    fn unknown_figure_rejected() {
        figure_spec(6);
    }

    #[test]
    fn tiny_figure_sweep_produces_full_grid() {
        let workload = WorkloadConfig {
            pairs_total: 120,
            other_work_ns: 500,
            capacity: 64,
            mem_budget: None,
        };
        let data = run_figure(
            figure_spec(3),
            &[1, 2],
            SimConfig::default(),
            &workload,
            |_, _| {},
        );
        assert_eq!(data.rows.len(), 6);
        for row in &data.rows {
            assert_eq!(row.points.len(), 2);
        }
        let md = data.to_markdown();
        assert!(md.contains("Figure 3"));
        assert!(md.contains("new-nonblocking"));
        let csv = data.to_csv();
        assert_eq!(csv.lines().count(), 1 + 6 * 2);
        assert!(data.net_secs(Algorithm::SingleLock, 1).is_some());
        assert!(data.net_secs(Algorithm::SingleLock, 7).is_none());
    }
}
