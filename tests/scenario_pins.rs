//! The scenario driver pinned byte-identical to the hand-written loops
//! it replaced.
//!
//! [`run_scenario_simulated`] is the only code that runs a workload. The
//! paired cases (unfaulted, killed and stalled) run [`PairedScenario`],
//! and the recovery and repair cases run [`PolicyScenario`]. Each
//! constant below is the FNV-1a digest of `format!("{report:?}")` (the
//! digest msqbench's `report_digest` prints) of the `SimReport` the old
//! loop produced for that case, recorded by running the old loops. The
//! loops are gone; the digests are the fixture.

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

/// `(contender, seed, digest)` of the old paired loop. The six
/// `SegBatched` and `Sharded` digests were recorded again when
/// `WordSegQueue`'s slow paths gained the paper's re-checks (E7 after
/// reading a full segment's `next`, and D2–D5's head, tail, next, head
/// order), whose extra loads change those queues' op streams; the other
/// eighteen are still the old loop's.
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
    (Algorithm::SegBatched, 0, 0x316d_5011_89b4_bc4a),
    (Algorithm::SegBatched, 11, 0x1c3c_f3fb_1560_564d),
    (Algorithm::SegBatched, 42, 0x0ecf_bf07_2876_fb9e),
    (Algorithm::Sharded, 0, 0xe47f_93c7_8317_603a),
    (Algorithm::Sharded, 11, 0x67ee_4635_dd9f_dbd5),
    (Algorithm::Sharded, 42, 0xc692_fee9_405e_af49),
];

/// The old loop on `new-nonblocking` at seed 11, with pid 1 killed on its
/// third enqueue-window hit.
const FAULTED_PAIRED: u64 = 0x3b57_9f87_97e6_efc8;

/// `(contender, stall label, digest)` of faultbench's old stall loop at
/// its smoke scale: 4 processors, 320 pairs with 6 µs of other work,
/// capacity 4,096, and pid 0 stalled 100 µs at occurrences 0, 8, 16 and
/// 24 of the label.
const STALLED: [(Algorithm, &str, u64); 4] = [
    (
        Algorithm::NewNonBlocking,
        "msq:enq:window",
        0xcf69_d006_1cf0_3858,
    ),
    (
        Algorithm::NewNonBlocking,
        "msq:deq:window",
        0xf39c_6e6c_475a_57a0,
    ),
    (
        Algorithm::SingleLock,
        "single-lock:enq:locked",
        0x3305_90bc_8a72_189c,
    ),
    (
        Algorithm::SingleLock,
        "single-lock:deq:locked",
        0x461e_bc82_da5a_f0d6,
    ),
];

/// `(contender, kill label, repairable build, digest)` of the old
/// policy loop at seed 0, pid 1 killed on its first
/// hit of the label and pid 0 the designated survivor. With the two
/// original repairable cases they pin all six repair paths (both windows
/// of each blocking queue); the other four were recorded from the
/// separate repairable queue types, before repair became a mode of the
/// plain queues.
const POLICY: [(Algorithm, &str, bool, u64); 7] = [
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
        Algorithm::SingleLock,
        "single-lock:deq:locked",
        true,
        0x74bf_6115_2ba8_1ba4,
    ),
    (
        Algorithm::NewTwoLock,
        "two-lock:enq:locked",
        true,
        0x0389_0de1_b9e8_6c10,
    ),
    (
        Algorithm::NewTwoLock,
        "two-lock:deq:locked",
        true,
        0x6003_020b_300a_2cde,
    ),
    (
        Algorithm::MellorCrummey,
        "mc:enq:window",
        true,
        0xc45b_a9a0_66d9_5a78,
    ),
    (
        Algorithm::MellorCrummey,
        "mc:deq:window",
        true,
        0xc523_1169_62b5_c4ad,
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
fn unified_driver_reproduces_the_legacy_stall_loop_byte_identically() {
    let workload = WorkloadConfig {
        pairs_total: 320,
        other_work_ns: 6_000,
        capacity: 4_096,
        mem_budget: None,
    };
    let config = SimConfig {
        processors: 4,
        ..SimConfig::default()
    };
    for (algorithm, label, want) in STALLED {
        let plan = (0..4).fold(FaultPlan::new(), |plan, k| {
            plan.stall_at_label(0, label, 8 * k, 100_000)
        });
        let report = scenario_report(algorithm, config, PairedScenario { workload }, plan);
        assert_eq!(report.stalls_injected, 4, "{algorithm} at {label}");
        assert_eq!(
            digest(&report),
            want,
            "stalled paired scenario diverged from the old stall loop ({algorithm} at {label})"
        );
    }
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
