//! Benchmark of the Thistle optimizer and its serving tier.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 [--rev R]
//! perfbench record-reference
//! perfbench time-pool --workload W
//! perfbench selftest
//! perfbench server --trace 0|1
//! perfbench measure --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` prints one `{"info": ...}` line describing what ran, then the
//! result line `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). `perfbench/run.py` builds this crate and drives it; see
//! `perfbench/README.md` for the workloads and metric definitions.

mod batch;
mod calibrate;
mod protocol;
mod selftest;
mod serve;
mod stages;
mod util;
mod verify;

use protocol::{Reference, Workload, REFERENCE};
use std::path::Path;
use thistle_obs::TraceCtx;
use util::{nproc, result_line, string, Metric, Quantile};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rev: String,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub reference_intact: bool,
    pub metrics: Vec<Metric>,
    /// `(key, JSON value)` pairs for the info line.
    pub info: Vec<(String, String)>,
    pub samples: Vec<(String, String)>,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn info(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    pub fn info_samples(&mut self, key: &str, n: usize) {
        self.samples
            .push((key.to_string(), format!("{{\"n\": {n}}}")));
    }

    pub fn info_quantile(&mut self, key: &str, q: &Quantile) {
        self.samples.push((
            key.to_string(),
            format!(
                "{{\"value\": {}, \"q\": {}, \"n\": {}, \"beyond\": {}}}",
                util::num(q.value),
                util::num(q.q),
                q.n,
                q.beyond
            ),
        ));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.reference_intact && self.attempted > 0
    }
}

fn object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Command-line flags as `--name value` pairs.
struct Flags(Vec<String>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
            .transpose()
    }
}

fn run_args(flags: &Flags) -> Result<RunArgs, String> {
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let args = RunArgs {
        workload,
        seed: flags.parse("--seed")?.ok_or("--seed is required")?,
        seconds: flags.parse("--seconds")?.ok_or("--seconds is required")?,
        trace: match flags.get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        rev: flags.get("--rev").unwrap_or("unknown").to_string(),
    };
    if !Path::new(REFERENCE).is_file() {
        return Err(format!("no reference file at {REFERENCE}"));
    }
    Ok(args)
}

fn run(flags: &Flags) -> Result<bool, String> {
    let args = run_args(flags)?;
    let workload = args.workload;
    let out = match workload {
        Workload::ServeMixed => serve::run(&args),
        _ => batch::run(&args),
    };
    for e in out.errors.iter().take(10) {
        eprintln!("check failed: {e}");
    }
    let mut info = vec![
        ("workload".to_string(), string(workload.name())),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), util::num(args.seconds)),
        ("trace".to_string(), args.trace.to_string()),
        ("nproc".to_string(), nproc().to_string()),
        ("profile".to_string(), string(workload.profile())),
        ("rev".to_string(), string(&args.rev)),
    ];
    info.extend(out.info.iter().cloned());
    info.push(("samples".to_string(), object(&out.samples)));
    println!("{{\"info\": {}}}", object(&info));
    println!(
        "{}",
        result_line(out.correct(), out.attempted, out.failed, &out.metrics)
    );
    Ok(true)
}

/// Processes that time the batch pool for `record-reference`, and rounds
/// over the pool in each. A layer's cost is the median over the processes
/// of its median over the rounds: one process solves some layers up to
/// ~10% faster or slower than the next does, and costs from a single
/// process would unbalance the draws.
const COST_PROCESSES: usize = 4;
const COST_ROUNDS: usize = 3;

fn record_reference() -> Result<bool, String> {
    let mut reference = Reference::default();
    for w in [Workload::CodesignEnergy, Workload::FixedDelayScreen] {
        let pool = protocol::batch_pool();
        let mut costs = vec![Vec::new(); pool.len()];
        let mut scores: Vec<Option<f64>> = vec![None; pool.len()];
        for _ in 0..COST_PROCESSES {
            for (i, (score, cost)) in spawn_time_pool(w)?.into_iter().enumerate() {
                if scores[i].is_some_and(|s| s.to_bits() != score.to_bits()) {
                    return Err(format!(
                        "{}: the winner changed between solves",
                        pool[i].name
                    ));
                }
                scores[i] = Some(score);
                costs[i].push(cost);
            }
        }
        for (i, layer) in pool.iter().enumerate() {
            let (score, cost) = (scores[i].expect("solved"), util::median(&costs[i]));
            reference.insert(w.name(), &layer.name, score, cost);
            eprintln!("{} {} {score:?} {cost:.1} ms", w.name(), layer.name);
        }
    }
    serve::record_reference(&mut reference, nproc());
    std::fs::write(REFERENCE, reference.render())
        .map_err(|e| format!("cannot write {REFERENCE}: {e}"))?;
    eprintln!("{} references -> {REFERENCE}", reference.len());
    Ok(true)
}

/// Solves the batch pool [`COST_ROUNDS`] times in this process and returns
/// each layer's winning score and median solve time at nominal host speed
/// (ms), in pool order. Rounds go over the whole pool, so a slow spell of
/// the machine does not land on one layer's repetitions.
fn time_pool(w: Workload) -> Result<Vec<(f64, f64)>, String> {
    let optimizer = w.optimizer(nproc());
    let pool = protocol::batch_pool();
    let mut ms = vec![Vec::new(); pool.len()];
    let mut scores = vec![None; pool.len()];
    for _ in 0..COST_ROUNDS {
        for (i, layer) in pool.iter().enumerate() {
            let mut pass = batch::run_pass(
                &optimizer,
                std::slice::from_ref(layer),
                w.objective(),
                &w.mode(),
                &TraceCtx::disabled(),
            );
            let (latency_s, result) = pass.solves.pop().expect("one layer, one solve");
            let point = result.map_err(|e| format!("{}: {e}", layer.name))?;
            ms[i].push(latency_s * 1e3);
            let score = point.score(w.objective());
            if scores[i].is_some_and(|s: f64| s.to_bits() != score.to_bits()) {
                return Err(format!("{}: the winner changed between solves", layer.name));
            }
            scores[i] = Some(score);
        }
    }
    Ok(scores
        .into_iter()
        .zip(&ms)
        .map(|(score, ms)| (score.expect("solved"), util::median(ms)))
        .collect())
}

/// Runs `perfbench time-pool` in a process of its own; it prints one
/// `score cost_ms` line per pool layer.
fn spawn_time_pool(w: Workload) -> Result<Vec<(f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["time-pool", "--workload", w.name()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a timing process: {e}"))?;
    if !output.status.success() {
        return Err(format!("timing process failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(
            |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                [score, cost] => Some((score.parse().ok()?, cost.parse().ok()?)),
                _ => None,
            },
        )
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "unreadable output from a timing process".to_string())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(argv.clone());
    let result = match argv.first().map(String::as_str) {
        Some("run") => run(&flags),
        Some("measure") => run_args(&flags).map(|args| {
            batch::measure_main(&args);
            true
        }),
        Some("record-reference") => record_reference(),
        Some("time-pool") => {
            let name = flags.get("--workload").unwrap_or_default();
            match Workload::parse(name) {
                Some(w) => time_pool(w).map(|costs| {
                    for (score, cost) in costs {
                        println!("{score:?} {cost}");
                    }
                    true
                }),
                None => Err(format!("unknown workload {name}")),
            }
        }
        Some("selftest") => selftest::run(),
        Some("server") => serve::server_main(flags.get("--trace") == Some("1")).map(|()| true),
        _ => Err("usage: perfbench run|record-reference|selftest|server ...".into()),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
