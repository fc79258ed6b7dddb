//! What each workload runs: optimizer profiles, layer pools, the seeded
//! draws, and the reference scores the results are checked against.

use crate::util::Rng;
use std::collections::HashMap;
use thistle::{Deadline, DesignPoint, OptimizeError, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};
use thistle_obs::TraceCtx;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5: co-design at Eyeriss area, energy objective, full budget.
    CodesignEnergy,
    /// Fixed Eyeriss, delay objective, the `serve --fast` screening budget.
    FixedDelayScreen,
    /// Open-loop HTTP traffic against a server on the screening budget.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CodesignEnergy,
        Workload::FixedDelayScreen,
        Workload::ServeMixed,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CodesignEnergy => "codesign_energy",
            Workload::FixedDelayScreen => "fixed_delay_screen",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Option profile name, recorded with every result.
    pub fn profile(self) -> &'static str {
        match self {
            Workload::CodesignEnergy => "full",
            Workload::FixedDelayScreen | Workload::ServeMixed => "screen",
        }
    }

    pub fn options(self, threads: usize) -> OptimizerOptions {
        match self {
            Workload::CodesignEnergy => OptimizerOptions {
                threads,
                ..OptimizerOptions::default()
            },
            Workload::FixedDelayScreen | Workload::ServeMixed => screen_options(threads),
        }
    }

    pub fn objective(self) -> Objective {
        match self {
            Workload::CodesignEnergy | Workload::ServeMixed => Objective::Energy,
            Workload::FixedDelayScreen => Objective::Delay,
        }
    }

    pub fn mode(self) -> ArchMode {
        match self {
            Workload::CodesignEnergy => {
                ArchMode::CoDesign(CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), &tech()))
            }
            Workload::FixedDelayScreen | Workload::ServeMixed => {
                ArchMode::Fixed(ArchConfig::eyeriss())
            }
        }
    }

    pub fn optimizer(self, threads: usize) -> Optimizer {
        Optimizer::new(tech()).with_options(self.options(threads))
    }
}

/// The screening budget of `thistle-cli serve --fast`, with the sweep
/// thread count set explicitly.
pub fn screen_options(threads: usize) -> OptimizerOptions {
    OptimizerOptions {
        max_perm_pairs: 16,
        candidate_limit: 400,
        top_solutions: 2,
        threads,
        ..OptimizerOptions::default()
    }
}

pub fn tech() -> TechnologyParams {
    TechnologyParams::cgo2022_45nm()
}

/// The batch layer pool: ResNet-18 + Yolo-9000 (Table II).
pub fn batch_pool() -> Vec<ConvLayer> {
    thistle_bench::all_layers()
        .into_iter()
        .map(|(_, layer)| layer)
        .collect()
}

/// Layers per pass of a batch workload.
pub fn pass_len(w: Workload) -> usize {
    match w {
        Workload::CodesignEnergy => 4,
        _ => 20,
    }
}

/// Largest deviation of a draw's recorded cost from the pool average.
const DRAW_COST_TOLERANCE: f64 = 0.01;

/// The seeded draw of a batch workload: `pass_len` layers from the pool,
/// each pool layer used at most `ceil(pass_len / pool)` times. Draws whose
/// recorded reference cost strays more than 1% from `pass_len` times the
/// pool mean are redrawn, so the seed changes which layers run, not how
/// much work a pass is.
pub fn draw_layers(w: Workload, seed: u64, reference: &Reference) -> Vec<ConvLayer> {
    let pool = batch_pool();
    let n = pass_len(w);
    let cost = |l: &ConvLayer| reference.cost_ms(w.name(), &l.name).unwrap_or(1.0);
    let mean = pool.iter().map(cost).sum::<f64>() / pool.len() as f64;
    let target = mean * n as f64;
    let mut rng = Rng::new(seed, w.name());
    let mut best: Option<(f64, Vec<ConvLayer>)> = None;
    for _ in 0..100_000 {
        let mut draw: Vec<ConvLayer> = Vec::with_capacity(n);
        while draw.len() < n {
            let mut copy = pool.clone();
            rng.shuffle(&mut copy);
            draw.extend(copy.into_iter().take(n - draw.len()));
        }
        let off = (draw.iter().map(cost).sum::<f64>() - target).abs() / target;
        if best.as_ref().is_none_or(|(b, _)| off < *b) {
            best = Some((off, draw));
        }
        if best
            .as_ref()
            .is_some_and(|(b, _)| *b <= DRAW_COST_TOLERANCE)
        {
            break;
        }
    }
    best.expect("at least one draw").1
}

/// A tiny conv shape of the serve pool (square input and kernel, stride 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    pub k: u64,
    pub c: u64,
    pub hw: u64,
    pub rs: u64,
}

impl Shape {
    pub fn layer(self, batch: u64) -> ConvLayer {
        ConvLayer::new(
            &self.key(batch),
            batch,
            self.k,
            self.c,
            self.hw,
            self.hw,
            self.rs,
            self.rs,
            1,
        )
    }

    /// Reference-table key of this shape at `batch`.
    pub fn key(self, batch: u64) -> String {
        format!("k{}c{}hw{}rs{}b{batch}", self.k, self.c, self.hw, self.rs)
    }
}

/// Batch of the hot set (the near-miss donors).
pub const HOT_BATCH: u64 = 2;
/// Batch of cold misses: batch 1 is never routed to a warm start.
pub const COLD_BATCH: u64 = 1;
/// Batches of a hot family's near-misses, in order. Each warm start's donor
/// is the family's previous entry: the hot entry for the first, the first
/// near-miss's result for the second.
pub const NEAR_BATCHES: [u64; 2] = [4, 8];

/// Every serve shape: 8 x 5 x 6 x 2 = 480 distinct workload families.
pub fn serve_universe() -> Vec<Shape> {
    let mut out = Vec::new();
    for k in [4, 6, 8, 12, 16, 24, 32, 48] {
        for c in [3, 4, 8, 16, 32] {
            for hw in [6, 8, 10, 12, 14, 16] {
                for rs in [1, 3] {
                    out.push(Shape { k, c, hw, rs });
                }
            }
        }
    }
    out
}

/// The near-miss path exactly as the serving pool runs it: a warm start
/// from the donor, falling back to a cold solve if the warm one fails.
pub fn near_miss_solve(
    optimizer: &Optimizer,
    layer: &ConvLayer,
    objective: Objective,
    mode: &ArchMode,
    donor: &DesignPoint,
    donor_batch: u64,
) -> Result<DesignPoint, OptimizeError> {
    let deadline = Deadline::none();
    let ctx = TraceCtx::disabled();
    optimizer
        .optimize_layer_near_miss_deadline(
            layer,
            objective,
            mode,
            donor,
            donor_batch,
            &deadline,
            &ctx,
        )
        .or_else(|_| optimizer.optimize_layer(layer, objective, mode))
}

/// Reference scores recorded at the commit that defined the benchmark.
///
/// File format: one `table key score cost_ms` line per entry (`#` starts
/// a comment), closed by `checksum <fnv64-hex>` over the entry lines.
#[derive(Debug, Default, Clone)]
pub struct Reference {
    entries: HashMap<(String, String), (f64, f64)>,
    /// Whether the checksum line matched the entries.
    pub intact: bool,
}

fn fnv64(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The reference file, relative to the repository root.
pub const REFERENCE: &str = "perfbench/reference.txt";

impl Reference {
    /// Loads [`REFERENCE`].
    pub fn load() -> Result<Reference, String> {
        let text = std::fs::read_to_string(REFERENCE)
            .map_err(|e| format!("cannot read {REFERENCE}: {e}"))?;
        Ok(Reference::parse(&text))
    }

    pub fn parse(text: &str) -> Reference {
        let mut entries = HashMap::new();
        let mut body = String::new();
        let mut checksum = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(hex) = line.strip_prefix("checksum ") {
                checksum = u64::from_str_radix(hex.trim(), 16).ok();
                continue;
            }
            body.push_str(line);
            body.push('\n');
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [table, key, score, cost] = f[..] {
                if let (Ok(s), Ok(c)) = (score.parse::<f64>(), cost.parse::<f64>()) {
                    entries.insert((table.to_string(), key.to_string()), (s, c));
                }
            }
        }
        Reference {
            entries,
            intact: checksum == Some(fnv64(&body)),
        }
    }

    pub fn insert(&mut self, table: &str, key: &str, score: f64, cost_ms: f64) {
        self.entries
            .insert((table.to_string(), key.to_string()), (score, cost_ms));
    }

    pub fn score(&self, table: &str, key: &str) -> Option<f64> {
        self.entries
            .get(&(table.to_string(), key.to_string()))
            .map(|e| e.0)
    }

    pub fn cost_ms(&self, table: &str, key: &str) -> Option<f64> {
        self.entries
            .get(&(table.to_string(), key.to_string()))
            .map(|e| e.1)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Multiplies one entry's score by `factor` without fixing the
    /// checksum (self-test corruption).
    pub fn corrupt(&mut self, table: &str, key: &str, factor: f64) {
        if let Some(e) = self.entries.get_mut(&(table.to_string(), key.to_string())) {
            e.0 *= factor;
        }
    }

    pub fn render(&self) -> String {
        let mut keys: Vec<&(String, String)> = self.entries.keys().collect();
        keys.sort();
        let mut body = String::new();
        for k in keys {
            let (score, cost) = self.entries[k];
            body.push_str(&format!("{} {} {score:?} {cost:.3}\n", k.0, k.1));
        }
        format!(
            "# Reference winner scores (energy pJ or cycles) and solve cost (ms at\n\
             # nominal host speed), recorded by `perfbench record-reference`. Scores\n\
             # are checked; costs balance the seeded draws and set latency limits.\n\
             {body}checksum {:016x}\n",
            fnv64(&body)
        )
    }
}
