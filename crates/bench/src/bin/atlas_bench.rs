//! Near-miss warm-start benchmark for the design-space atlas, on the Fig. 5
//! co-design workload.
//!
//! Three solves of the same ResNet layer shape:
//!
//! 1. **donor** — cold solve at batch 2 (full permutation sweep): the entry
//!    the atlas would hold after serving earlier traffic;
//! 2. **cold** — cold solve at batch 4: what the batch-variant cache miss
//!    costs without the atlas;
//! 3. **warm** — near-miss solve of the same batch-4 layer from the donor:
//!    only the donor's winning permutation pair is generated, its lowering
//!    is patched against the donor GP (unchanged CSR rows reused), and the
//!    barrier solver warm-starts from the donor's relaxed optimum.
//!
//! Results go to `BENCH_atlas.json` in the working directory; CI guards the
//! warm-vs-cold speedup (>= 2x) and a positive Newton-iteration saving.
//! `--quick` (or `THISTLE_FAST=1`) shrinks search budgets so CI can run
//! this as a smoke test.

use std::time::Instant;

use thistle::{Deadline, Optimizer, OptimizerOptions};
use thistle_arch::ArchConfig;
use thistle_bench::tech;
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};
use thistle_obs::TraceCtx;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("THISTLE_FAST").is_ok_and(|v| v == "1");
    let options = if quick {
        OptimizerOptions {
            max_perm_pairs: 16,
            candidate_limit: 400,
            top_solutions: 1,
            threads: 8,
            ..OptimizerOptions::default()
        }
    } else {
        OptimizerOptions {
            threads: 8,
            ..OptimizerOptions::default()
        }
    };
    let threads = options.threads;
    let optimizer = Optimizer::new(tech()).with_options(options);

    // The Fig. 5 setting: same-area co-design, representative ResNet layer,
    // at two batch sizes differing only in the batch extent (the atlas
    // near-miss case).
    let mode = ArchMode::CoDesign(CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), &tech()));
    let objective = Objective::Energy;
    let donor_batch = 2u64;
    let target_batch = 4u64;
    let donor_layer = ConvLayer::new("resnet_2_b2", donor_batch, 64, 64, 56, 56, 3, 3, 1);
    let target_layer = ConvLayer::new("resnet_2_b4", target_batch, 64, 64, 56, 56, 3, 3, 1);

    let start = Instant::now();
    let donor = optimizer
        .optimize_layer(&donor_layer, objective, &mode)
        .expect("donor solve");
    let donor_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let cold = optimizer
        .optimize_layer(&target_layer, objective, &mode)
        .expect("cold solve");
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let warm = optimizer
        .optimize_layer_near_miss_deadline(
            &target_layer,
            objective,
            &mode,
            &donor,
            donor_batch,
            &Deadline::none(),
            &TraceCtx::disabled(),
        )
        .expect("near-miss solve");
    let warm_ms = start.elapsed().as_secs_f64() * 1e3;

    let speedup = cold_ms / warm_ms;
    // How far the single-pair warm solve lands from the full cold sweep's
    // optimum (>= 0 means the donor's pair also wins, or nearly wins, at
    // the new batch — the smoothness the atlas banks on).
    let objective_gap = warm.eval.energy_pj / cold.eval.energy_pj - 1.0;

    println!(
        "== atlas_bench: fig5 near-miss workload (resnet_2, b{donor_batch} -> b{target_batch}){} ==",
        if quick { " [quick]" } else { "" }
    );
    println!(
        "donor  b{donor_batch}: {donor_ms:9.1} ms  {:4} Newton iters  {} GP solves",
        donor.report.newton_iterations, donor.gp_solves
    );
    println!(
        "cold   b{target_batch}: {cold_ms:9.1} ms  {:4} Newton iters  {} GP solves",
        cold.report.newton_iterations, cold.gp_solves
    );
    println!(
        "warm   b{target_batch}: {warm_ms:9.1} ms  {:4} Newton iters  \
         {} rows reused, {} re-lowered, {} Newton iters saved vs donor",
        warm.report.newton_iterations,
        warm.report.rows_reused,
        warm.report.rows_relowered,
        warm.report.warm_newton_saved,
    );
    println!("speedup {speedup:.2}x, warm objective within {objective_gap:+.2e} of cold");
    assert!(
        warm.report.warm_started,
        "near-miss solve did not warm-start"
    );

    let json = format!(
        "{{\n  \"workload\": \"resnet_2\",\n  \"mode\": \"codesign-same-area (fig5)\",\n  \"quick\": {},\n  \"donor_batch\": {},\n  \"target_batch\": {},\n  \"donor\": {{\n    \"ms\": {:.1},\n    \"newton_iterations\": {}\n  }},\n  \"cold\": {{\n    \"ms\": {:.1},\n    \"newton_iterations\": {},\n    \"gp_solves\": {}\n  }},\n  \"warm\": {{\n    \"ms\": {:.1},\n    \"newton_iterations\": {},\n    \"warm_started\": {},\n    \"warm_newton_saved\": {},\n    \"rows_reused\": {},\n    \"rows_relowered\": {}\n  }},\n  \"speedup\": {:.2},\n  \"objective_gap\": {:.3e}\n}}\n",
        quick,
        donor_batch,
        target_batch,
        donor_ms,
        donor.report.newton_iterations,
        cold_ms,
        cold.report.newton_iterations,
        cold.gp_solves,
        warm_ms,
        warm.report.newton_iterations,
        warm.report.warm_started,
        warm.report.warm_newton_saved,
        warm.report.rows_reused,
        warm.report.rows_relowered,
        speedup,
        objective_gap,
    );
    std::fs::write("BENCH_atlas.json", json).expect("write BENCH_atlas.json");
    println!("wrote BENCH_atlas.json");
    thistle_bench::append_history(
        "atlas",
        quick,
        threads,
        &[
            ("donor_ms", donor_ms),
            ("cold_ms", cold_ms),
            ("warm_ms", warm_ms),
            ("speedup", speedup),
        ],
    );
}
