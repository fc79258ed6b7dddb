//! The batch workloads: repeated passes of `Optimizer::optimize_layer`
//! over a seeded draw of the ResNet-18 + Yolo-9000 layers.

use crate::calibrate::{self, slowdown, BATCH_SENSITIVITY};
use crate::protocol::{batch_pool, draw_layers, tech, Reference, Workload};
use crate::stages::Stages;
use crate::util::{
    geomean, interquartile_mean, list, median, metric, nproc, num, peak_rss_mb, process_cpu_s,
    string, Metric,
};
use crate::verify::{check_design, check_quality, Design};
use crate::{serve, Outcome, RunArgs};
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;
use thistle::{DesignPoint, OptimizeError, Optimizer};
use thistle_arch::Bandwidths;
use thistle_model::{ArchMode, ConvLayer, Objective, ProblemGenerator};
use thistle_obs::{CollectingSink, TraceCtx};
use thistle_serve::Json;
use timeloop_lite::{evaluate, ArchSpec};

/// Latency limit of one layer solve for `slo_ok_ratio`, as a multiple of
/// the layer's recorded cost. At 2x, host noise alone put one co-design
/// solve in 32 past the limit in a few runs out of ten.
const LIMIT_OVER_COST: f64 = 3.0;

/// Measuring processes per run, each with one set-up; `setup_s` is the
/// median of their set-ups.
const PROCESSES: usize = 8;

fn layer_limit_s(w: Workload, reference: &Reference, layer: &ConvLayer) -> f64 {
    reference.cost_ms(w.name(), &layer.name).unwrap_or(0.0) * LIMIT_OVER_COST / 1e3
}

pub struct Pass {
    /// Summed layer latencies, each divided by the host's slowdown around
    /// it (seconds at nominal speed).
    pub wall_s: f64,
    /// The same for CPU seconds.
    pub cpu_s: f64,
    /// Summed layer latencies as measured.
    pub raw_s: f64,
    /// Per layer: latency at nominal speed and the result.
    pub solves: Vec<Solve>,
}

pub type Solve = (f64, Result<DesignPoint, OptimizeError>);

/// One pass over `layers`, with a host-speed reading before each layer
/// and after the last; each layer's time is divided by the mean of the
/// two readings around it. The readings lie outside the timed spans.
pub fn run_pass(
    optimizer: &Optimizer,
    layers: &[ConvLayer],
    objective: Objective,
    mode: &ArchMode,
    ctx: &TraceCtx,
) -> Pass {
    let threads = optimizer.options().threads;
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        raw_s: 0.0,
        solves: Vec::with_capacity(layers.len()),
    };
    let mut before = slowdown(threads, BATCH_SENSITIVITY);
    for layer in layers {
        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let result = optimizer.optimize_layer_traced(layer, objective, mode, ctx);
        let latency = t.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - cpu0;
        let after = slowdown(threads, BATCH_SENSITIVITY);
        let speed = (before + after) / 2.0;
        pass.wall_s += latency / speed;
        pass.cpu_s += cpu / speed;
        pass.raw_s += latency;
        pass.solves.push((latency / speed, result));
        before = after;
    }
    pass
}

/// Per-call costs of three public entry points, timed on one winner:
/// `ProblemGenerator::generate` and `GpProblem::solve` for the winning
/// permutation pair, and `timeloop_lite::evaluate` on the winning design.
pub fn call_costs(
    optimizer: &Optimizer,
    layer: &ConvLayer,
    objective: Objective,
    mode: &ArchMode,
    point: &DesignPoint,
) -> Option<CallCosts> {
    let opts = optimizer.options();
    let generator = ProblemGenerator::new(layer.workload(), tech(), Bandwidths::default())
        .with_register_cost(opts.register_cost)
        .with_spatial_stencils(opts.spatial_stencils);
    let mut generate_ms = Vec::new();
    let mut solve_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let gp = generator
            .generate(&point.perm1, &point.perm3, objective, mode)
            .ok()?;
        generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(gp.problem.solve(&opts.solve_options).ok()?);
        solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let prob = thistle::convert::to_problem_spec(&layer.workload());
    let spec = ArchSpec::from_config("winner", &point.arch, &tech(), Bandwidths::default());
    const CALLS: u32 = 2000;
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(evaluate(black_box(&prob), &spec, black_box(&point.mapping)).ok()?);
    }
    let evaluate_us = t.elapsed().as_secs_f64() * 1e6 / CALLS as f64;
    Some((median(&generate_ms), median(&solve_ms), evaluate_us))
}

/// Per-call costs on winners (`generate` ms, `solve` ms, `evaluate` us).
pub type CallCosts = (f64, f64, f64);

/// The per-layer metrics every workload shares: the stage split, the
/// per-call costs (means over winners) and the tracing overhead. Also
/// records the stage shares the workloads were chosen for.
pub fn stage_metrics(
    out: &mut Outcome,
    stages: &Stages,
    costs: &[CallCosts],
    trace_overhead: f64,
) -> Vec<Metric> {
    out.info(
        "stage_shares",
        format!(
            "{{\"sweep\": {}, \"integerize_rescore\": {}}}",
            stages.share(stages.sweep_ns),
            stages.share(stages.integerize_ns + stages.rescore_ns)
        ),
    );
    let mean =
        |f: fn(&CallCosts) -> f64| costs.iter().map(f).sum::<f64>() / costs.len().max(1) as f64;
    let mut metrics = stages.metrics();
    metrics.extend([
        metric("model.generate_ms", mean(|c| c.0), "ms"),
        metric("gp.solve_ms_per_call", mean(|c| c.1), "ms"),
        metric("referee.evaluate_us_per_call", mean(|c| c.2), "us"),
        metric("obs.trace_overhead_ratio", trace_overhead, "ratio"),
    ]);
    metrics
}

/// The pool layer with the highest recorded cost for `w`.
fn warm_up_layer(w: Workload, reference: &Reference) -> ConvLayer {
    let cost = |l: &ConvLayer| reference.cost_ms(w.name(), &l.name).unwrap_or(0.0);
    batch_pool()
        .into_iter()
        .max_by(|a, b| cost(a).total_cmp(&cost(b)))
        .expect("the pool is not empty")
}

/// What one measuring process saw: one set-up, then timed passes.
#[derive(Debug, Default)]
struct Measured {
    /// Set-up time at nominal speed, and as measured.
    setup_s: f64,
    setup_raw_s: f64,
    wall: Vec<f64>,
    wall_raw: Vec<f64>,
    cpu: Vec<f64>,
    traced_wall: Vec<f64>,
    rss_mb: f64,
    attempted: u64,
    failed: u64,
    slo_ok: u64,
    ratios: Vec<f64>,
    errors: Vec<String>,
    intact: bool,
    layers: String,
    stages: Stages,
    costs: Vec<CallCosts>,
}

impl Measured {
    fn encode(&self) -> String {
        let errors: Vec<String> = self.errors.iter().take(10).map(|e| string(e)).collect();
        let costs: Vec<String> = self.costs.iter().map(|c| list(&[c.0, c.1, c.2])).collect();
        format!(
            "{{\"setup_s\": {}, \"setup_raw_s\": {}, \"wall\": {}, \"wall_raw\": {}, \
             \"cpu\": {}, \"traced_wall\": {}, \"rss_mb\": {}, \"attempted\": {}, \"failed\": {}, \
             \"slo_ok\": {}, \"ratios\": {}, \"errors\": [{}], \"intact\": {}, \"layers\": {}, \
             \"stages\": {}, \"costs\": [{}]}}",
            num(self.setup_s),
            num(self.setup_raw_s),
            list(&self.wall),
            list(&self.wall_raw),
            list(&self.cpu),
            list(&self.traced_wall),
            num(self.rss_mb),
            self.attempted,
            self.failed,
            self.slo_ok,
            list(&self.ratios),
            errors.join(", "),
            self.intact,
            string(&self.layers),
            string(&self.stages.encode()),
            costs.join(", ")
        )
    }

    fn decode(text: &str) -> Option<Measured> {
        let v = Json::parse(text).ok()?;
        let nums = |k: &str| -> Option<Vec<f64>> {
            v.get(k)?.as_arr()?.iter().map(Json::as_f64).collect()
        };
        let costs = v
            .get("costs")?
            .as_arr()?
            .iter()
            .map(|c| match c.as_arr()? {
                [g, s, e] => Some((g.as_f64()?, s.as_f64()?, e.as_f64()?)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Measured {
            setup_s: v.get("setup_s")?.as_f64()?,
            setup_raw_s: v.get("setup_raw_s")?.as_f64()?,
            wall: nums("wall")?,
            wall_raw: nums("wall_raw")?,
            cpu: nums("cpu")?,
            traced_wall: nums("traced_wall")?,
            rss_mb: v.get("rss_mb")?.as_f64()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            slo_ok: v.get("slo_ok")?.as_u64()?,
            ratios: nums("ratios")?,
            errors: v
                .get("errors")?
                .as_arr()?
                .iter()
                .map(|e| e.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            intact: v.get("intact")?.as_bool()?,
            layers: v.get("layers")?.as_str()?.to_string(),
            stages: Stages::decode(v.get("stages")?.as_str()?)?,
            costs,
        })
    }
}

/// One measuring process: set up once, then run timed passes for
/// `args.seconds`, verify every solve, and (traced) time the per-call
/// costs on the winners.
fn measure(args: &RunArgs) -> Measured {
    let w = args.workload;
    let objective = w.objective();
    let mode = w.mode();

    // Set-up: load the references, build the optimizer, draw the layers,
    // and warm up on the pool layer with the highest recorded cost. That is
    // the same work for every seed, and it grows the heap to about its
    // peak, so neither peak RSS nor the allocator's state during the passes
    // hinges on the draw (warming up on the cheapest layer instead left
    // every later co-design pass about 20% slower, with twice the system
    // time). It is timed between two host-speed readings.
    let before = slowdown(nproc(), BATCH_SENSITIVITY);
    let t = Instant::now();
    let reference = Reference::load().unwrap_or_default();
    let optimizer = w.optimizer(nproc());
    let layers = draw_layers(w, args.seed, &reference);
    let warm_up = [warm_up_layer(w, &reference)];
    black_box(run_pass(
        &optimizer,
        &warm_up,
        objective,
        &mode,
        &TraceCtx::disabled(),
    ));
    let setup_raw_s = t.elapsed().as_secs_f64();
    let setup_s = setup_raw_s / ((before + slowdown(nproc(), BATCH_SENSITIVITY)) / 2.0);

    // Timed passes. A traced run alternates traced and untraced passes, so
    // the tracing overhead is measured on the same draw and process.
    let sink = Arc::new(CollectingSink::new());
    let traced_ctx = TraceCtx::new(sink.clone());
    let mut stages = Stages::default();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let window = Instant::now();
    loop {
        if args.trace && traced.len() <= untraced.len() {
            traced.push(run_pass(&optimizer, &layers, objective, &mode, &traced_ctx));
            stages.add(&sink.take());
        } else {
            untraced.push(run_pass(
                &optimizer,
                &layers,
                objective,
                &mode,
                &TraceCtx::disabled(),
            ));
        }
        let last = untraced.last().map_or(0.0, |p| p.raw_s);
        let enough = !untraced.is_empty() && (!args.trace || !traced.is_empty());
        if enough && window.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }

    // Verify every solve of the window.
    let mut m = Measured {
        setup_s,
        setup_raw_s,
        wall: untraced.iter().map(|p| p.wall_s).collect(),
        wall_raw: untraced.iter().map(|p| p.raw_s).collect(),
        cpu: untraced.iter().map(|p| p.cpu_s).collect(),
        traced_wall: traced.iter().map(|p| p.wall_s).collect(),
        intact: reference.intact,
        layers: layers
            .iter()
            .map(|l| l.name.as_str())
            .collect::<Vec<_>>()
            .join(","),
        ..Measured::default()
    };
    for pass in untraced.iter().chain(&traced) {
        for ((latency, result), layer) in pass.solves.iter().zip(&layers) {
            m.attempted += 1;
            let verdict = match result {
                Ok(point) => check_design(layer, objective, &mode, &Design::of(point))
                    .and_then(|score| check_quality(&reference, w.name(), &layer.name, score)),
                Err(e) => Err(format!("{}: {e}", layer.name)),
            };
            match verdict {
                Ok(ratio) => {
                    m.ratios.push(ratio);
                    if *latency <= layer_limit_s(w, &reference, layer) {
                        m.slo_ok += 1;
                    }
                }
                Err(e) => {
                    m.failed += 1;
                    m.errors.push(e);
                }
            }
        }
    }
    if let Some(pass) = traced.last() {
        for ((_, result), layer) in pass.solves.iter().zip(&layers) {
            if let Ok(point) = result {
                m.costs
                    .extend(call_costs(&optimizer, layer, objective, &mode, point));
            }
        }
    }
    m.stages = stages;
    m.rss_mb = peak_rss_mb();
    m
}

/// `perfbench measure`: one measuring process; prints its findings as one
/// JSON line for the parent run.
pub fn measure_main(args: &RunArgs) {
    println!("{}", measure(args).encode());
}

/// A batch run: [`PROCESSES`] measuring processes one after another, each
/// with its own set-up and a share of the window. On a shared host a
/// process tends to keep one speed for its whole life, so the passes of a
/// single process stand for one draw of that speed; pooling several
/// processes averages it out.
pub fn run(args: &RunArgs) -> Outcome {
    let share = RunArgs {
        seconds: args.seconds / PROCESSES as f64,
        ..args.clone()
    };
    let mut parts = Vec::new();
    for _ in 0..PROCESSES {
        match spawn_measure(&share) {
            Ok(m) => parts.push(m),
            Err(e) => {
                return Outcome {
                    attempted: 1,
                    failed: 1,
                    errors: vec![e],
                    ..Outcome::default()
                }
            }
        }
    }
    let cat = |f: fn(&Measured) -> &Vec<f64>| -> Vec<f64> {
        parts.iter().flat_map(|m| f(m).iter().copied()).collect()
    };
    let setup_s: Vec<f64> = parts.iter().map(|m| m.setup_s).collect();
    let setup_raw_s: Vec<f64> = parts.iter().map(|m| m.setup_raw_s).collect();
    let rss: Vec<f64> = parts.iter().map(|m| m.rss_mb).collect();
    let (wall, wall_raw, cpu, traced_wall, ratios) = (
        cat(|m| &m.wall),
        cat(|m| &m.wall_raw),
        cat(|m| &m.cpu),
        cat(|m| &m.traced_wall),
        cat(|m| &m.ratios),
    );
    let attempted: u64 = parts.iter().map(|m| m.attempted).sum();
    let failed: u64 = parts.iter().map(|m| m.failed).sum();
    let slo_ok: u64 = parts.iter().map(|m| m.slo_ok).sum();
    let mut out = Outcome {
        attempted,
        failed,
        reference_intact: parts.iter().all(|m| m.intact),
        errors: parts.iter().flat_map(|m| m.errors.clone()).collect(),
        ..Outcome::default()
    };
    out.info(
        "threads",
        format!("{{\"sweep\": {}, \"processes\": {PROCESSES}}}", nproc()),
    );
    out.info("layers", string(&parts[0].layers));
    out.info("calibration", calibrate::info());
    out.info(
        "slo",
        format!("{{\"limit_over_cost\": {}}}", num(LIMIT_OVER_COST)),
    );
    out.info("setup_s_each", list(&setup_s));
    out.info("pass_s_each", list(&wall));
    out.info("setup_raw_s_each", list(&setup_raw_s));
    out.info("pass_raw_s_each", list(&wall_raw));
    out.info_samples("setup_s", setup_s.len());
    out.info_samples("pass_s", wall.len());
    out.info_samples("traced_passes", traced_wall.len());
    if !args.trace {
        let denom = attempted.max(1) as f64;
        out.metrics = vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("pass_s", interquartile_mean(&wall), "s"),
            metric("cpu_s", interquartile_mean(&cpu), "s"),
            metric("peak_rss_mb", median(&rss), "MB"),
            metric("quality_ratio", geomean(&ratios), "ratio"),
            metric("ok_ratio", (attempted - failed) as f64 / denom, "ratio"),
            metric("slo_ok_ratio", slo_ok as f64 / denom, "ratio"),
        ];
        return out;
    }

    // Per-layer metrics: stage split of the traced passes, per-call costs
    // on the winners, tracing overhead.
    let mut stages = Stages::default();
    for m in &parts {
        stages.merge(&m.stages);
    }
    let costs: Vec<CallCosts> = parts.iter().flat_map(|m| m.costs.clone()).collect();
    let overhead = median(&traced_wall) / median(&wall);
    out.metrics = stage_metrics(&mut out, &stages, &costs, overhead);
    out.metrics.extend(serve::layer_metrics(None));
    out
}

fn spawn_measure(args: &RunArgs) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("measure")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a measuring process: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    match (
        output.status.success(),
        text.lines().last().and_then(Measured::decode),
    ) {
        (true, Some(m)) => Ok(m),
        _ => Err(format!("measuring process failed ({})", output.status)),
    }
}
