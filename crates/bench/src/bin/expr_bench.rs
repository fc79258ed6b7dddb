//! Micro-benchmarks for the expression/evaluation refactor, on the Fig. 5
//! co-design workload.
//!
//! Three measurements, each pitting a locally reproduced *pre-refactor*
//! baseline against the current kernels:
//!
//! 1. **signomial eval** — the legacy term-walk (`Signomial::eval`, one
//!    `powf` per exponent) vs [`CompiledSignomial`] (CSR rows over the live
//!    variables, reusable scratch) on the traffic-model totals;
//! 2. **eval_full** — a dense log-sum-exp sweep (dense exponent rows,
//!    allocating value/grad/Hessian per call, as the solver did before the
//!    CSR rewrite) vs [`LogSumExp::eval_into`] across the objective and
//!    every inequality — the barrier solver's inner loop;
//! 3. **gp_solve** — end-to-end [`GpProblem::solve`] throughput for scale.
//!
//! Results go to `BENCH_expr.json` in the working directory. `--quick` (or
//! `THISTLE_FAST=1`) shrinks iteration counts so CI can run this as a smoke
//! test.

use std::time::Instant;

use thistle_arch::ArchConfig;
use thistle_bench::tech;
use thistle_expr::{Assignment, CompiledSignomial, EvalScratch, Posynomial, Signomial};
use thistle_gp::linalg::Matrix;
use thistle_gp::{GpProblem, LogSumExp, LseScratch};
use thistle_model::volumes::TrafficModel;
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective, ProblemGenerator};

/// Best-of-three timing of `iters` repetitions of `f`, in ns per repetition.
fn time_ns_per_iter<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    best
}

/// The pre-refactor log-sum-exp evaluator: dense exponent rows, fresh
/// gradient and Hessian allocations on every call. Reproduced here so the
/// benchmark compares against what the solver used to run.
struct DenseLse {
    rows: Vec<Vec<f64>>,
    offsets: Vec<f64>,
    n: usize,
}

impl DenseLse {
    fn from_posynomial(p: &Posynomial, n: usize) -> Self {
        let mut rows = Vec::with_capacity(p.num_terms());
        let mut offsets = Vec::with_capacity(p.num_terms());
        for (c, m) in p.terms() {
            let mut row = vec![0.0; n];
            for (v, a) in m.powers() {
                row[v.index()] = a;
            }
            rows.push(row);
            offsets.push((c * m.coeff()).ln());
        }
        DenseLse { rows, offsets, n }
    }

    fn value_grad_hess(&self, y: &[f64]) -> (f64, Vec<f64>, Vec<f64>) {
        let gs: Vec<f64> = self
            .rows
            .iter()
            .zip(&self.offsets)
            .map(|(row, b)| row.iter().zip(y).map(|(a, yi)| a * yi).sum::<f64>() + b)
            .collect();
        let mx = gs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let ws: Vec<f64> = gs.iter().map(|g| (g - mx).exp()).collect();
        let z: f64 = ws.iter().sum();
        let value = mx + z.ln();
        let mut grad = vec![0.0; self.n];
        for (row, w) in self.rows.iter().zip(&ws) {
            let p = w / z;
            for (g, a) in grad.iter_mut().zip(row) {
                *g += p * a;
            }
        }
        let mut hess = vec![0.0; self.n * self.n];
        for (row, w) in self.rows.iter().zip(&ws) {
            let p = w / z;
            for i in 0..self.n {
                let pi = p * row[i];
                for j in 0..self.n {
                    hess[i * self.n + j] += pi * row[j];
                }
            }
        }
        for i in 0..self.n {
            for j in 0..self.n {
                hess[i * self.n + j] -= grad[i] * grad[j];
            }
        }
        (value, grad, hess)
    }
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("THISTLE_FAST").is_ok_and(|v| v == "1");
    let (sig_iters, sweep_iters, solve_iters) = if quick { (50, 10, 1) } else { (2000, 300, 5) };

    // The Fig. 5 setting: same-area co-design, representative ResNet layer.
    let layer = ConvLayer::new("resnet_2", 1, 64, 64, 56, 56, 3, 3, 1);
    let generator = ProblemGenerator::new(layer.workload(), tech(), Default::default());
    let (p1, p3) = generator.permutation_classes()[0].clone();
    let mode = ArchMode::CoDesign(CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), &tech()));
    let gp = generator
        .generate(&p1, &p3, Objective::Energy, &mode)
        .expect("fig5 problem generation");
    let n = gp.problem.registry().len();

    let solution = gp.problem.solve(&Default::default()).expect("fig5 solve");
    let point: Assignment = solution.assignment.clone();
    let y: Vec<f64> = point.values().iter().map(|x| x.ln()).collect();

    // -- 1. signomial eval: legacy term-walk vs compiled CSR ----------------
    let traffic = TrafficModel::build(&gp.space, &p1, &p3);
    let totals: Vec<Signomial> = vec![
        traffic.total_sram_reg(),
        traffic.total_reg_fills(),
        traffic.total_dram_sram(),
        traffic.total_register_footprint(),
        traffic.total_sram_footprint(),
    ];
    let compiled: Vec<CompiledSignomial> = totals.iter().map(CompiledSignomial::compile).collect();
    let term_count: usize = totals.iter().map(Signomial::num_terms).sum();

    let legacy_value: f64 = totals.iter().map(|s| s.eval(&point)).sum();
    let mut scratch = EvalScratch::default();
    let compiled_value: f64 = compiled
        .iter()
        .map(|c| c.eval_with(&point, &mut scratch))
        .sum();
    assert!(
        relative_gap(legacy_value, compiled_value) < 1e-9,
        "compiled eval diverged: {legacy_value} vs {compiled_value}"
    );

    let mut sink = 0.0f64;
    let legacy_sig_ns = time_ns_per_iter(sig_iters, || {
        sink += totals.iter().map(|s| s.eval(&point)).sum::<f64>();
    });
    let compiled_sig_ns = time_ns_per_iter(sig_iters, || {
        sink += compiled
            .iter()
            .map(|c| c.eval_with(&point, &mut scratch))
            .sum::<f64>();
    });

    // -- 2. eval_full: dense sweep vs CSR eval_into -------------------------
    let objective = gp.problem.objective().expect("objective set").clone();
    let all_posys: Vec<&Posynomial> = std::iter::once(&objective)
        .chain(gp.problem.inequalities())
        .collect();
    let dense: Vec<DenseLse> = all_posys
        .iter()
        .map(|p| DenseLse::from_posynomial(p, n))
        .collect();
    let csr: Vec<LogSumExp> = all_posys
        .iter()
        .map(|p| LogSumExp::from_posynomial(p, n))
        .collect();

    let dense_sweep_ns = time_ns_per_iter(sweep_iters, || {
        for f in &dense {
            let (v, _, _) = f.value_grad_hess(&y);
            sink += v;
        }
    });
    let mut grad = vec![0.0; n];
    let mut hess = Matrix::zeros(n, n);
    let mut lse_scratch = LseScratch::default();
    let csr_sweep_ns = time_ns_per_iter(sweep_iters, || {
        for f in &csr {
            sink += f.eval_into(&y, &mut grad, Some(&mut hess), &mut lse_scratch);
        }
    });

    // -- 3. end-to-end solve throughput -------------------------------------
    let solve_ns = time_ns_per_iter(solve_iters, || {
        sink += GpProblem::solve(&gp.problem, &Default::default())
            .expect("fig5 solve")
            .objective;
    });

    let sig_speedup = legacy_sig_ns / compiled_sig_ns;
    let sweep_speedup = dense_sweep_ns / csr_sweep_ns;
    println!("== expr_bench: fig5 co-design workload ({}) ==", layer.name);
    println!(
        "problem: {n} vars, {} inequalities, {} traffic-total terms{}",
        gp.problem.num_inequalities(),
        term_count,
        if quick { " [quick]" } else { "" }
    );
    println!(
        "signomial eval   legacy {legacy_sig_ns:10.0} ns   compiled {compiled_sig_ns:10.0} ns   {sig_speedup:5.2}x"
    );
    println!(
        "eval_full sweep  dense  {dense_sweep_ns:10.0} ns   csr      {csr_sweep_ns:10.0} ns   {sweep_speedup:5.2}x"
    );
    println!(
        "gp_solve         {:.2} ms/solve ({:.1} solves/s, {} Newton iters)",
        solve_ns / 1e6,
        1e9 / solve_ns,
        solution.newton_iterations
    );
    // Keep `sink` observable so the timed loops cannot be optimized away.
    assert!(sink.is_finite());

    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"mode\": \"codesign-same-area (fig5)\",\n  \"quick\": {},\n  \"vars\": {},\n  \"inequalities\": {},\n  \"signomial_eval\": {{\n    \"terms\": {},\n    \"legacy_ns\": {:.1},\n    \"compiled_ns\": {:.1},\n    \"speedup\": {:.2}\n  }},\n  \"eval_full\": {{\n    \"dense_ns\": {:.1},\n    \"csr_ns\": {:.1},\n    \"speedup\": {:.2}\n  }},\n  \"gp_solve\": {{\n    \"ms_per_solve\": {:.3},\n    \"newton_iterations\": {}\n  }}\n}}\n",
        layer.name,
        quick,
        n,
        gp.problem.num_inequalities(),
        term_count,
        legacy_sig_ns,
        compiled_sig_ns,
        sig_speedup,
        dense_sweep_ns,
        csr_sweep_ns,
        sweep_speedup,
        solve_ns / 1e6,
        solution.newton_iterations,
    );
    std::fs::write("BENCH_expr.json", json).expect("write BENCH_expr.json");
    println!("wrote BENCH_expr.json");
    // Every measurement here runs on the calling thread.
    thistle_bench::append_history(
        "expr",
        quick,
        1,
        &[
            ("signomial_legacy_ns", legacy_sig_ns),
            ("signomial_compiled_ns", compiled_sig_ns),
            ("signomial_speedup", sig_speedup),
            ("eval_full_dense_ns", dense_sweep_ns),
            ("eval_full_csr_ns", csr_sweep_ns),
            ("eval_full_speedup", sweep_speedup),
            ("gp_solve_ms", solve_ns / 1e6),
        ],
    );
}
