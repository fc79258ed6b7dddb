//! Benchmarks the deduplicated permutation sweep against a bench-local
//! reference loop that solves every permutation pair independently, on the
//! Fig. 5 co-design workload.
//!
//! Each layer is optimized end to end through `optimize_layer_traced`; the
//! table leads with that end-to-end layer time, then the sweep's own
//! wall-clock (the `gp_sweep` span). The reference loop calls
//! `ProblemGenerator::generate` and `GpProblem::solve` once per pair
//! through the public API, over the same pair set on the same number of
//! threads, so the sweep speedup is exactly what content deduplication
//! saves. `reference_total_ms` is the layer time with the reference loop in
//! place of the sweep (`layer - sweep + reference`).
//!
//! The bench also checks the winner bits: the reference solve of the
//! winning pair must reproduce the winner's relaxed optimum, and the best
//! reference objective must equal `relaxed_objective`, bit for bit. It
//! exits nonzero if they do not.
//!
//! Results go to `BENCH_solver.json` (`BENCH_solver_quick.json` for quick
//! runs) in the working directory and one summary record is appended to
//! `BENCH_history.jsonl` for the perf-regression sentinel
//! (`thistle-cli perfdiff`). The JSON keeps its historical key names:
//! `sequential_*` is the reference loop, `batched_*` the sweep.
//!
//! Flags: `--quick` (or `THISTLE_FAST=1`) shrinks the pair budget so CI can
//! run this as a smoke test; `--floor X` exits nonzero unless the geomean
//! sweep speedup is at least `X` (the CI smoke uses `--quick --floor 2`).

use std::time::Instant;

use thistle::{DesignPoint, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, Bandwidths};
use thistle_bench::{geomean, print_table, tech};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective, PermPair, ProblemGenerator};
use thistle_obs::{CollectingSink, Record, TraceCtx};

/// One measured optimization: end-to-end and `gp_sweep` wall-clock.
struct Run {
    total_ms: f64,
    sweep_ms: f64,
    point: DesignPoint,
}

fn run_once(optimizer: &Optimizer, layer: &ConvLayer, mode: &ArchMode) -> Run {
    let sink = std::sync::Arc::new(CollectingSink::new());
    let ctx = TraceCtx::new(sink.clone());
    let start = Instant::now();
    let point = optimizer
        .optimize_layer_traced(layer, Objective::Energy, mode, &ctx)
        .expect("optimize_layer");
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let sweep_ns: u64 = sink
        .take()
        .iter()
        .filter_map(Record::as_span)
        .filter(|s| s.name == "gp_sweep")
        .map(|s| s.dur_ns)
        .sum();
    Run {
        total_ms,
        sweep_ms: sweep_ns as f64 / 1e6,
        point,
    }
}

/// The pairs the optimizer sweeps: its permutation classes, stride-sampled
/// down to `max_perm_pairs` exactly as the optimizer does.
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

/// One reference solve: the pair's relaxed objective and optimum.
type ReferenceSolve = Option<(f64, Vec<f64>)>;

/// The reference loop: generate and solve every pair independently,
/// `threads` workers over contiguous chunks. Returns the wall-clock in ms
/// and each pair's solve, indexed like the sweep's pair index.
fn reference_sweep(
    generator: &ProblemGenerator,
    pairs: &[PermPair],
    options: &OptimizerOptions,
    mode: &ArchMode,
) -> (f64, Vec<ReferenceSolve>) {
    let chunk = pairs.len().div_ceil(options.threads.max(1)).max(1);
    let start = Instant::now();
    let solves: Vec<ReferenceSolve> = std::thread::scope(|scope| {
        let workers: Vec<_> = pairs
            .chunks(chunk)
            .map(|work| {
                scope.spawn(move || {
                    work.iter()
                        .map(|(p1, p3)| {
                            let gp = generator.generate(p1, p3, Objective::Energy, mode).ok()?;
                            let sol = gp.problem.solve(&options.solve_options).ok()?;
                            Some((sol.objective, sol.assignment.values().to_vec()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker"))
            .collect()
    });
    (start.elapsed().as_secs_f64() * 1e3, solves)
}

/// Whether the reference loop reproduces the sweep winner bit for bit.
fn winner_identical(point: &DesignPoint, pairs: &[PermPair], solves: &[ReferenceSolve]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let best = solves
        .iter()
        .flatten()
        .map(|(objective, _)| *objective)
        .min_by(f64::total_cmp);
    let (p1, p3) = &pairs[point.perm_pair];
    let winning_pair = solves[point.perm_pair].as_ref();
    best.map(f64::to_bits) == Some(point.relaxed_objective.to_bits())
        && *p1 == point.perm1
        && *p3 == point.perm3
        && winning_pair.is_some_and(|(_, x)| bits(x) == bits(point.relaxed_point.values()))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick") || thistle_bench::fast_mode();
    let floor: Option<f64> = argv
        .iter()
        .position(|a| a == "--floor")
        .and_then(|i| argv.get(i + 1))
        .map(|v| v.parse().expect("--floor takes a number"));

    // Budgets are explicit (not inherited from THISTLE_FAST) so a quick run
    // measures the same configuration everywhere.
    let max_perm_pairs = if quick { 96 } else { 288 };
    let options = OptimizerOptions {
        max_perm_pairs,
        candidate_limit: if quick { 400 } else { 4000 },
        top_solutions: if quick { 4 } else { 24 },
        threads: if quick { 4 } else { 8 },
        ..OptimizerOptions::default()
    };
    let optimizer = Optimizer::new(tech()).with_options(options.clone());

    // The fig5 setting: layer-wise co-design at Eyeriss-equal area. The
    // layer set spans the duplicate-multiplicity range of the full fig5
    // suite — resnet_2/resnet_12 sweeps carry 2.56x duplication (64 pairs,
    // 25 distinct GPs), resnet_8/yolo_6 carry 4.00x (16 distinct) — so the
    // geomean is representative of a whole fig5 run.
    let eyeriss = ArchConfig::eyeriss();
    let mode = ArchMode::CoDesign(CoDesignSpec::same_area_as(&eyeriss, &tech()));
    let picks: &[&str] = if quick {
        &["resnet_2", "yolo_6"]
    } else {
        &["resnet_2", "resnet_8", "resnet_12", "yolo_6"]
    };
    let layers: Vec<ConvLayer> = thistle_bench::all_layers()
        .into_iter()
        .map(|(_, layer)| layer)
        .filter(|layer| picks.contains(&layer.name.as_str()))
        .collect();
    assert_eq!(layers.len(), picks.len(), "bench layer names drifted");

    println!(
        "== solver_bench: deduplicated sweep vs per-pair reference ({} pairs/layer){} ==",
        max_perm_pairs,
        if quick { " [quick]" } else { "" }
    );

    let mut rows = Vec::new();
    let mut sweep_speedups = Vec::new();
    let mut total_speedups = Vec::new();
    let mut sweep_total_ms = 0.0;
    let mut layer_json = Vec::new();
    let mut winners_identical = true;
    for layer in &layers {
        let generator = ProblemGenerator::new(layer.workload(), tech(), Bandwidths::default())
            .with_register_cost(options.register_cost)
            .with_spatial_stencils(options.spatial_stencils);
        let pairs = sweep_pairs(&generator, max_perm_pairs);
        // Warm-up pass absorbs one-time costs (thread start-up, page
        // faults), then best-of-two keeps scheduler noise out of the ratio.
        let _ = run_once(&optimizer, layer, &mode);
        let runs = [
            run_once(&optimizer, layer, &mode),
            run_once(&optimizer, layer, &mode),
        ];
        let references = [
            reference_sweep(&generator, &pairs, &options, &mode),
            reference_sweep(&generator, &pairs, &options, &mode),
        ];
        let best = |xs: &mut dyn Iterator<Item = f64>| xs.fold(f64::INFINITY, f64::min);
        let layer_ms = best(&mut runs.iter().map(|r| r.total_ms));
        let sweep_ms = best(&mut runs.iter().map(|r| r.sweep_ms));
        let reference_ms = best(&mut references.iter().map(|r| r.0));
        let reference_total_ms = layer_ms - sweep_ms + reference_ms;
        let point = &runs[0].point;
        let identical = winner_identical(point, &pairs, &references[0].1);
        winners_identical &= identical;
        let sweep_speedup = reference_ms / sweep_ms;
        let total_speedup = reference_total_ms / layer_ms;
        sweep_speedups.push(sweep_speedup);
        total_speedups.push(total_speedup);
        sweep_total_ms += sweep_ms;
        let (contents, members) = (point.report.batch_classes, point.report.batch_members);
        rows.push(vec![
            layer.name.clone(),
            format!("{layer_ms:.0}"),
            format!("{reference_total_ms:.0}"),
            format!("{total_speedup:.2}x"),
            format!("{sweep_ms:.0}"),
            format!("{reference_ms:.0}"),
            format!("{sweep_speedup:.2}x"),
            format!("{:.0}%", 100.0 * sweep_ms / layer_ms),
            format!("{contents}/{members}"),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        layer_json.push(format!(
            "    {{\n      \"layer\": \"{}\",\n      \"sequential_sweep_ms\": {reference_ms:.1},\n      \
             \"batched_sweep_ms\": {sweep_ms:.1},\n      \"sweep_speedup\": {sweep_speedup:.2},\n      \
             \"sequential_total_ms\": {reference_total_ms:.1},\n      \"batched_total_ms\": {layer_ms:.1},\n      \
             \"total_speedup\": {total_speedup:.2},\n      \"batch_classes\": {contents},\n      \
             \"batch_members\": {members},\n      \"sweep_survivors\": {},\n      \"winner_identical\": {identical}\n    }}",
            layer.name, point.gp_solves,
        ));
    }

    print_table(
        &[
            "layer",
            "layer ms",
            "ref layer ms",
            "layer speedup",
            "sweep ms",
            "ref sweep ms",
            "sweep speedup",
            "sweep share",
            "contents/pairs",
            "identical",
        ],
        &rows,
    );
    let sweep_speedup = geomean(&sweep_speedups);
    let total_speedup = geomean(&total_speedups);
    println!(
        "\ngeomean end-to-end {total_speedup:.2}x, sweep {sweep_speedup:.2}x, winners identical: {winners_identical}"
    );

    let json = format!(
        "{{\n  \"mode\": \"codesign-same-area (fig5)\",\n  \"quick\": {quick},\n  \
         \"max_perm_pairs\": {max_perm_pairs},\n  \"layers\": [\n{}\n  ],\n  \
         \"sweep_speedup\": {sweep_speedup:.2},\n  \"total_speedup\": {total_speedup:.2},\n  \
         \"winners_identical\": {winners_identical}\n}}\n",
        layer_json.join(",\n"),
    );
    // Quick runs (the CI smoke) write to their own file so the committed
    // full-mode baseline and the committed quick baseline never collide.
    let out = if quick {
        "BENCH_solver_quick.json"
    } else {
        "BENCH_solver.json"
    };
    std::fs::write(out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
    thistle_bench::append_history(
        "solver",
        quick,
        options.threads,
        &[
            ("sweep_speedup", sweep_speedup),
            ("total_speedup", total_speedup),
            ("batched_sweep_ms", sweep_total_ms),
        ],
    );

    assert!(
        winners_identical,
        "the per-pair reference loop did not reproduce the sweep winner"
    );
    if let Some(floor) = floor {
        assert!(
            sweep_speedup >= floor,
            "sweep speedup {sweep_speedup:.2}x below the required floor {floor:.2}x"
        );
    }
}
