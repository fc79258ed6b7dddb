//! Differential tests for the deduplicated permutation sweep: the sweep,
//! which solves each distinct GP content once and shares the solution with
//! every pair that lowers to it, must agree bit for bit with a sequential
//! reference loop that generates and solves every pair on its own, and must
//! pick the same winner at any thread count.
//!
//! Sharing one solve between byte-identical GPs makes the first property
//! hold by construction, so these tests are the contract that keeps any
//! future screening or warm-start work honest: a change that trades
//! fidelity for speed fails here first.

use thistle::{DesignPoint, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective, PermPair, ProblemGenerator};

fn options(threads: usize) -> OptimizerOptions {
    OptimizerOptions {
        max_perm_pairs: 16,
        candidate_limit: 300,
        top_solutions: 3,
        threads,
        ..OptimizerOptions::default()
    }
}

fn optimizer(threads: usize) -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(options(threads))
}

fn layer() -> ConvLayer {
    ConvLayer::new("batch_diff", 1, 16, 16, 18, 18, 3, 3, 1)
}

fn codesign_mode() -> ArchMode {
    let eyeriss = ArchConfig::eyeriss();
    ArchMode::CoDesign(CoDesignSpec::same_area_as(
        &eyeriss,
        &TechnologyParams::cgo2022_45nm(),
    ))
}

/// The pairs the optimizer sweeps: its permutation classes, stride-sampled
/// down to `max_perm_pairs` by the optimizer's rule.
fn sweep_pairs(generator: &ProblemGenerator, max_perm_pairs: usize) -> Vec<PermPair> {
    let mut pairs = generator.permutation_classes();
    if pairs.len() <= max_perm_pairs || max_perm_pairs == 0 {
        return pairs;
    }
    let keep_every = pairs.len() as f64 / max_perm_pairs as f64;
    let (mut index, mut next) = (0usize, 0.0f64);
    pairs.retain(|_| {
        let keep = index as f64 >= next;
        if keep {
            next += keep_every;
        }
        index += 1;
        keep
    });
    pairs.truncate(max_perm_pairs);
    pairs
}

/// Every field that identifies the winning design and its provenance.
fn assert_same_winner(a: &DesignPoint, b: &DesignPoint, context: &str) {
    assert_eq!(a.perm_pair, b.perm_pair, "{context}: perm_pair");
    assert_eq!(
        a.relaxed_objective.to_bits(),
        b.relaxed_objective.to_bits(),
        "{context}: relaxed objective bits"
    );
    assert_eq!(
        a.eval.energy_pj.to_bits(),
        b.eval.energy_pj.to_bits(),
        "{context}: energy bits"
    );
    assert_eq!(a.mapping, b.mapping, "{context}: mapping");
    assert_eq!(a.arch, b.arch, "{context}: arch");
    assert_eq!(a.perm1, b.perm1, "{context}: perm1");
    assert_eq!(a.perm3, b.perm3, "{context}: perm3");
}

/// Through the co-design path, which adds the equal-area monomial
/// equalities and is where pairs collapse to byte-identical GPs, the sweep
/// reproduces a sequential per-pair reference loop: the same best relaxed
/// objective, the winning pair's permutations and relaxed optimum bit for
/// bit, and one relaxed solution per pair the reference solved.
#[test]
fn batched_matches_sequential_codesign() {
    let (layer, mode) = (layer(), codesign_mode());
    let options = options(2);
    let point = optimizer(2)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();

    let generator = ProblemGenerator::new(
        layer.workload(),
        TechnologyParams::cgo2022_45nm(),
        Bandwidths::default(),
    )
    .with_register_cost(options.register_cost)
    .with_spatial_stencils(options.spatial_stencils);
    let pairs = sweep_pairs(&generator, options.max_perm_pairs);
    let reference: Vec<Option<(f64, Vec<u64>)>> = pairs
        .iter()
        .map(|(p1, p3)| {
            let gp = generator.generate(p1, p3, Objective::Energy, &mode).ok()?;
            let sol = gp.problem.solve(&options.solve_options).ok()?;
            let bits = sol.assignment.values().iter().map(|x| x.to_bits());
            Some((sol.objective, bits.collect()))
        })
        .collect();

    let best = reference
        .iter()
        .flatten()
        .map(|(objective, _)| *objective)
        .min_by(f64::total_cmp)
        .expect("reference loop solved no pair");
    assert_eq!(
        best.to_bits(),
        point.relaxed_objective.to_bits(),
        "best relaxed objective"
    );
    let (p1, p3) = &pairs[point.perm_pair];
    assert_eq!(*p1, point.perm1, "winning pair perm1");
    assert_eq!(*p3, point.perm3, "winning pair perm3");
    let winner_bits: Vec<u64> = point
        .relaxed_point
        .values()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let (_, reference_bits) = reference[point.perm_pair]
        .as_ref()
        .expect("reference loop failed the winning pair");
    assert_eq!(*reference_bits, winner_bits, "winning relaxed optimum bits");
    assert_eq!(
        point.gp_solves,
        reference.iter().flatten().count(),
        "relaxed solutions"
    );

    // The sweep reports how many distinct contents it solved the pairs as.
    assert!(point.report.batch_classes > 0, "batch_classes missing");
    assert!(
        point.report.batch_members >= point.report.batch_classes,
        "members {} < classes {}",
        point.report.batch_members,
        point.report.batch_classes
    );
    assert_eq!(point.report.batch_members as usize, pairs.len());
}

/// The sweep is deterministic: one thread and four produce the same full
/// design point and the same failure ledger.
#[test]
fn batched_sweep_is_thread_count_invariant() {
    let (layer, mode) = (layer(), codesign_mode());
    let one = optimizer(1)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();
    let four = optimizer(4)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();
    assert_same_winner(&four, &one, "threads 1 vs 4");
    assert_eq!(
        one.gp_solves, four.gp_solves,
        "gp_solves drifted across threads"
    );
    assert_eq!(one.ledger, four.ledger, "ledger drifted across threads");
}
