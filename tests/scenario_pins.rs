//! The scenario engine's legacy entry points, pinned byte-identical to the
//! pre-refactor inline loops they replaced.
//!
//! `run_simulated`, `run_simulated_faulted`, and the figure sweeps reduce
//! to [`PairedScenario`]; `run_simulated_recovered` and
//! `run_simulated_repaired` reduce to [`PolicyScenario`]. Each constant
//! below is the FNV-1a digest of `format!("{report:?}")` (the digest
//! msqbench's `report_digest` prints) of the `SimReport` the old loop
//! produced for that case, recorded by running the old loops. The loops
//! are gone; the digests are the fixture.

use ms_queues::{
    run_scenario_simulated, Algorithm, FaultPlan, PairedScenario, PolicyScenario, RecoveryPolicy,
    Scenario, SimConfig, SimPlatform, SimReport, WorkloadConfig,
};

const WORKLOAD: WorkloadConfig = WorkloadConfig {
    pairs_total: 240,
    other_work_ns: 500,
    capacity: 1_024,
    mem_budget: None,
};

fn sweep_config(seed: u64) -> SimConfig {
    SimConfig {
        processors: 3,
        processes_per_processor: 2,
        quantum_ns: 60_000,
        seed,
        ..SimConfig::default()
    }
}

/// The watchdog the faulted cases run under: far above their faultless
/// completion time, so it only ever fires on a genuine wedge.
fn watched_config(seed: u64) -> SimConfig {
    SimConfig {
        watchdog_ns: 400_000_000,
        ..sweep_config(seed)
    }
}

fn digest(report: &SimReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn scenario_report<S: Scenario<SimPlatform>>(
    algorithm: Algorithm,
    cfg: SimConfig,
    scenario: S,
    plan: FaultPlan,
) -> SimReport {
    run_scenario_simulated(algorithm, cfg, scenario, plan)
        .sim_report
        .expect("simulated run carries a report")
}

/// `(contender, seed, digest)` of the old `run_simulated` loop.
const PAIRED: [(Algorithm, u64, u64); 24] = [
    (Algorithm::SingleLock, 0, 0x5dff_4f18_da77_986e),
    (Algorithm::SingleLock, 11, 0xb0bc_c21f_046c_7b87),
    (Algorithm::SingleLock, 42, 0x28ad_5d2f_d399_d529),
    (Algorithm::MellorCrummey, 0, 0x9923_fd32_a64c_5f4b),
    (Algorithm::MellorCrummey, 11, 0x18c0_ac01_4f0e_aa60),
    (Algorithm::MellorCrummey, 42, 0xda9d_37c0_d17a_44b4),
    (Algorithm::Valois, 0, 0x4cac_34e3_7025_4849),
    (Algorithm::Valois, 11, 0x3a04_9a5d_ac55_8fde),
    (Algorithm::Valois, 42, 0xc9e5_2912_61e0_771d),
    (Algorithm::NewTwoLock, 0, 0x2c1b_49ab_f302_2c66),
    (Algorithm::NewTwoLock, 11, 0xcfc4_2c98_fd0f_c4cf),
    (Algorithm::NewTwoLock, 42, 0x60cc_4969_f421_02b7),
    (Algorithm::PljNonBlocking, 0, 0x644f_d4c4_286c_b549),
    (Algorithm::PljNonBlocking, 11, 0x4cde_c044_1541_8e25),
    (Algorithm::PljNonBlocking, 42, 0xdc0e_8ba4_abeb_9f7c),
    (Algorithm::NewNonBlocking, 0, 0xdd7c_221c_e522_8aff),
    (Algorithm::NewNonBlocking, 11, 0xd50a_8852_1a68_5c70),
    (Algorithm::NewNonBlocking, 42, 0x7760_78de_429c_fc16),
    (Algorithm::SegBatched, 0, 0x8b18_fe4b_0724_8bda),
    (Algorithm::SegBatched, 11, 0xfc0f_4407_af69_5534),
    (Algorithm::SegBatched, 42, 0x1ab0_0590_b102_a02a),
    (Algorithm::Sharded, 0, 0x15a7_775c_47b3_4940),
    (Algorithm::Sharded, 11, 0x2723_7974_d024_6dfe),
    (Algorithm::Sharded, 42, 0xf4ce_a2a0_a355_8a0b),
];

/// The old loop on `new-nonblocking` at seed 11, with pid 1 killed on its
/// third enqueue-window hit.
const FAULTED_PAIRED: u64 = 0x3b57_9f87_97e6_efc8;

/// `(contender, kill label, repairable build, digest)` of the old
/// `run_simulated_with_policy` loop at seed 0, pid 1 killed on its first
/// hit of the label and pid 0 the designated survivor.
const POLICY: [(Algorithm, &str, bool, u64); 3] = [
    (
        Algorithm::NewNonBlocking,
        "msq:deq:window",
        false,
        0xfd0b_d72d_00d0_b050,
    ),
    (
        Algorithm::SingleLock,
        "single-lock:enq:locked",
        true,
        0x9fcc_0c12_76d3_d363,
    ),
    (
        Algorithm::NewTwoLock,
        "two-lock:deq:locked",
        true,
        0x6003_020b_300a_2cde,
    ),
];

#[test]
fn unified_driver_reproduces_the_legacy_paired_loop_byte_identically() {
    for (algorithm, seed, want) in PAIRED {
        let report = scenario_report(
            algorithm,
            sweep_config(seed),
            PairedScenario { workload: WORKLOAD },
            FaultPlan::new(),
        );
        assert_eq!(
            digest(&report),
            want,
            "paired scenario diverged from the pre-refactor loop ({algorithm}, seed {seed})"
        );
    }
    let algorithm = Algorithm::NewNonBlocking;
    let report = scenario_report(
        algorithm,
        watched_config(11),
        PairedScenario { workload: WORKLOAD },
        FaultPlan::new().kill_at_label(1, algorithm.enqueue_fault_label(), 2),
    );
    assert_eq!(report.killed, vec![1]);
    assert_eq!(
        digest(&report),
        FAULTED_PAIRED,
        "faulted paired scenario diverged from the pre-refactor loop"
    );
}

#[test]
fn unified_driver_reproduces_the_legacy_policy_loop_byte_identically() {
    for (algorithm, label, repairable, want) in POLICY {
        let report = scenario_report(
            algorithm,
            watched_config(0),
            PolicyScenario {
                workload: WORKLOAD,
                policy: RecoveryPolicy::designated(0),
                repairable,
            },
            FaultPlan::new().kill_at_label(1, label, 0),
        );
        assert_eq!(report.killed, vec![1], "{algorithm}");
        assert_eq!(
            digest(&report),
            want,
            "policy scenario (repairable={repairable}) diverged from the \
             pre-refactor loop ({algorithm})"
        );
    }
}
