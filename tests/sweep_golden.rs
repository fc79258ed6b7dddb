//! Golden-winner differential for the permutation sweep.
//!
//! Every Table II layer (ResNet-18 + Yolo-9000) is optimized under three
//! protocols — fixed Eyeriss for energy (Fig. 4), equal-area co-design for
//! energy (Fig. 5) and fixed Eyeriss for delay — at one and four worker
//! threads on a reduced budget. Each run must reproduce the checked-in
//! record in `tests/fixtures/sweep_golden.txt` exactly: the winning pair,
//! the bits of the relaxed objective, energy and cycles, the mapping and
//! architecture, the number of GP solutions, the distinct-content count and
//! the failure ledger. Any change to how the sweep schedules, deduplicates
//! or solves its GPs that moves a single bit fails here.
//!
//! The chaos cases (built with `--features fault-inject`) kill individual
//! losing pairs and check that the survivors still pick the clean golden
//! winner, identically at one and four threads.
//!
//! After an intended change to winners, regenerate the fixture with
//! `cargo test --release --test sweep_golden -- --ignored bless_fixture`.

use thistle::{DesignPoint, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};

const FIXTURE: &str = include_str!("fixtures/sweep_golden.txt");

/// The three sweep protocols covered by the fixture.
#[derive(Debug, Clone, Copy)]
enum Setting {
    FixedEnergy,
    CodesignEnergy,
    FixedDelay,
}

impl Setting {
    const ALL: [Setting; 3] = [
        Setting::FixedEnergy,
        Setting::CodesignEnergy,
        Setting::FixedDelay,
    ];

    fn name(self) -> &'static str {
        match self {
            Setting::FixedEnergy => "fixed_energy",
            Setting::CodesignEnergy => "codesign_energy",
            Setting::FixedDelay => "fixed_delay",
        }
    }

    fn objective(self) -> Objective {
        match self {
            Setting::FixedEnergy | Setting::CodesignEnergy => Objective::Energy,
            Setting::FixedDelay => Objective::Delay,
        }
    }

    fn mode(self) -> ArchMode {
        let eyeriss = ArchConfig::eyeriss();
        match self {
            Setting::FixedEnergy | Setting::FixedDelay => ArchMode::Fixed(eyeriss),
            Setting::CodesignEnergy => ArchMode::CoDesign(CoDesignSpec::same_area_as(
                &eyeriss,
                &TechnologyParams::cgo2022_45nm(),
            )),
        }
    }
}

fn optimizer(threads: usize) -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: 16,
        candidate_limit: 300,
        top_solutions: 3,
        threads,
        ..OptimizerOptions::default()
    })
}

/// The evaluation layer set in Table II order.
fn layers() -> Vec<ConvLayer> {
    let mut layers = thistle_workloads::resnet18();
    layers.extend(thistle_workloads::yolo9000());
    layers
}

fn run(setting: Setting, layer: &ConvLayer, threads: usize) -> DesignPoint {
    optimizer(threads)
        .optimize_layer(layer, setting.objective(), &setting.mode())
        .unwrap_or_else(|e| panic!("{} {}: {e}", setting.name(), layer.name))
}

/// The winner-identifying part of a record: what must survive any fault
/// plan that spares the winning pair.
fn winner_fields(p: &DesignPoint) -> String {
    let m = &p.mapping;
    format!(
        "perm_pair={}\trelaxed={:016x}\tenergy={:016x}\tcycles={:016x}\t\
         arch={}x{}x{}x{}\tmapping={:?}/{:?}/{:?}/{:?}/{:?}/{:?}",
        p.perm_pair,
        p.relaxed_objective.to_bits(),
        p.eval.energy_pj.to_bits(),
        p.eval.cycles.to_bits(),
        p.arch.pe_count,
        p.arch.regs_per_pe,
        p.arch.sram_words,
        p.arch.word_bits,
        m.register_factors,
        m.pe_temporal_factors,
        m.pe_temporal_perm,
        m.spatial_factors,
        m.outer_factors,
        m.outer_perm,
    )
}

/// One fixture line: the winner plus the sweep's provenance counters.
fn record(setting: Setting, layer: &ConvLayer, p: &DesignPoint) -> String {
    format!(
        "{}\t{}\t{}\tgp_solves={}\tclasses={}\tledger={:?}",
        setting.name(),
        layer.name,
        winner_fields(p),
        p.gp_solves,
        p.report.batch_classes,
        p.ledger,
    )
}

/// The checked-in record for `(setting, layer)`.
fn golden(setting: Setting, layer: &ConvLayer) -> &'static str {
    let key = format!("{}\t{}\t", setting.name(), layer.name);
    FIXTURE
        .lines()
        .find(|line| line.starts_with(&key))
        .unwrap_or_else(|| panic!("fixture has no record for {}", key.trim_end()))
}

/// [`run`] with no fault armed. With fault injection compiled in, it holds
/// the process-wide registry with an empty plan, so a chaos case running
/// concurrently in this binary cannot leak faults into a clean golden run.
fn run_clean(setting: Setting, layer: &ConvLayer, threads: usize) -> DesignPoint {
    #[cfg(feature = "fault-inject")]
    let _clean = thistle_fault::FaultPlan::new().install();
    run(setting, layer, threads)
}

fn check_setting(setting: Setting) {
    let mut mismatches = Vec::new();
    for layer in layers() {
        for threads in [1, 4] {
            let point = run_clean(setting, &layer, threads);
            let got = record(setting, &layer, &point);
            let want = golden(setting, &layer);
            if got != want {
                mismatches.push(format!("threads={threads}\n  want {want}\n  got  {got}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} sweep drifted from the golden fixture:\n{}",
        setting.name(),
        mismatches.join("\n")
    );
}

#[test]
fn fixed_energy_matches_golden_at_1_and_4_threads() {
    check_setting(Setting::FixedEnergy);
}

#[test]
fn codesign_energy_matches_golden_at_1_and_4_threads() {
    check_setting(Setting::CodesignEnergy);
}

#[test]
fn fixed_delay_matches_golden_at_1_and_4_threads() {
    check_setting(Setting::FixedDelay);
}

/// Rewrites the fixture from the current code (one thread per run).
#[test]
#[ignore = "rewrites tests/fixtures/sweep_golden.txt; run only after an intended winner change"]
fn bless_fixture() {
    let mut out = String::new();
    for setting in Setting::ALL {
        for layer in layers() {
            let point = run_clean(setting, &layer, 1);
            out.push_str(&record(setting, &layer, &point));
            out.push('\n');
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/sweep_golden.txt"
    );
    std::fs::write(path, out).expect("write fixture");
}

/// Chaos cases: injected per-pair failures must leave the clean golden
/// winner standing and keep the sweep thread-count invariant.
#[cfg(feature = "fault-inject")]
mod chaos {
    use super::*;
    use thistle_fault::FaultPlan;

    /// The layer the chaos plans run against (the smallest ResNet-18
    /// stage, so the per-victim loop stays cheap).
    fn chaos_layer() -> ConvLayer {
        thistle_workloads::resnet18().swap_remove(11)
    }

    fn golden_winner() -> (String, usize) {
        let line = golden(Setting::FixedEnergy, &chaos_layer());
        let winner = line
            .split('\t')
            .skip(2)
            .take(6)
            .collect::<Vec<_>>()
            .join("\t");
        let perm_pair = winner
            .strip_prefix("perm_pair=")
            .and_then(|rest| rest.split('\t').next())
            .and_then(|n| n.parse().ok())
            .expect("fixture perm_pair");
        (winner, perm_pair)
    }

    /// Runs the chaos layer under `plan` at one and four threads, checks
    /// both against the golden winner and against each other (ledger and
    /// solve count included), and returns the one-thread point.
    fn run_plan(plan: &str) -> DesignPoint {
        let (winner, _) = golden_winner();
        let layer = chaos_layer();
        let points: Vec<DesignPoint> = [1, 4]
            .into_iter()
            .map(|threads| {
                let _guard = FaultPlan::parse(plan).unwrap().install();
                run(Setting::FixedEnergy, &layer, threads)
            })
            .collect();
        for (threads, p) in [1, 4].into_iter().zip(&points) {
            assert_eq!(
                winner_fields(p),
                winner,
                "plan `{plan}` threads={threads}: winner moved off the golden one"
            );
        }
        assert_eq!(
            record(Setting::FixedEnergy, &layer, &points[0]),
            record(Setting::FixedEnergy, &layer, &points[1]),
            "plan `{plan}`: 1 and 4 threads disagree"
        );
        points.into_iter().next().expect("two runs")
    }

    /// Kill one losing pair at every position in turn: a killed member
    /// never poisons the pairs that share its GP content, so the golden
    /// winner survives every time and exactly one failure is tallied.
    #[test]
    fn killed_member_keeps_the_golden_winner() {
        let (_, winner) = golden_winner();
        for victim in (0..16usize).filter(|&v| v != winner) {
            let point = run_plan(&format!("core.sweep.solve={victim}"));
            assert_eq!(point.ledger.numerical, 1, "victim={victim}");
            assert!(point.degraded, "victim={victim}");
        }
    }

    /// Solve failures and a generation-stage panic mixed in one plan.
    #[test]
    fn mixed_plan_keeps_the_golden_winner() {
        let (_, winner) = golden_winner();
        let victims: Vec<usize> = (0..16usize).filter(|&p| p != winner).take(3).collect();
        let point = run_plan(&format!(
            "core.sweep.solve={},{};core.sweep.panic={}",
            victims[0], victims[1], victims[2]
        ));
        assert_eq!(point.ledger.numerical, 2);
        assert_eq!(point.ledger.solver_panics, 1);
        assert!(point.degraded);
    }
}
