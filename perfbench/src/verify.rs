//! Independent checks of every design the program returns.

use crate::protocol::{tech, Reference};
use thistle::convert::to_problem_spec;
use thistle_arch::{ArchConfig, Bandwidths};
use thistle_model::{ArchMode, ConvLayer, Objective};
use timeloop_lite::model::tensor_traffic;
use timeloop_lite::sim::simulate_fills;
use timeloop_lite::{evaluate, ArchSpec, Mapping};

/// A returned design, as the program reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    pub arch: ArchConfig,
    pub mapping: Mapping,
    pub energy_pj: f64,
    pub cycles: f64,
}

impl Design {
    pub fn of(point: &thistle::DesignPoint) -> Design {
        Design {
            arch: point.arch,
            mapping: point.mapping.clone(),
            energy_pj: point.eval.energy_pj,
            cycles: point.eval.cycles,
        }
    }
}

pub fn score(objective: Objective, energy_pj: f64, cycles: f64) -> f64 {
    match objective {
        Objective::Energy => energy_pj,
        Objective::Delay => cycles,
        Objective::EnergyDelayProduct => energy_pj * cycles,
    }
}

/// Re-evaluates `design` with the referee and checks it against the
/// problem, the architecture constraints, and what the program claimed.
/// Returns the design's score under `objective`.
///
/// * divisibility and loop orders: [`Mapping::validate`];
/// * area: the fixed architecture itself, or within the co-design budget;
/// * capacity and PE count: the referee rejects overflowing mappings;
/// * the referee's energy and cycles must equal the claimed ones bit for bit.
pub fn check_design(
    layer: &ConvLayer,
    objective: Objective,
    mode: &ArchMode,
    design: &Design,
) -> Result<f64, String> {
    let prob = to_problem_spec(&layer.workload());
    design
        .mapping
        .validate(&prob)
        .map_err(|e| format!("invalid mapping: {e}"))?;
    match mode {
        ArchMode::Fixed(fixed) => {
            if design.arch != *fixed {
                return Err(format!(
                    "architecture {:?} is not the fixed one",
                    design.arch
                ));
            }
        }
        ArchMode::CoDesign(spec) => {
            let area = design.arch.area_um2(&tech());
            if area > spec.area_budget_um2 * (1.0 + 1e-9) {
                return Err(format!(
                    "area {area:.1} um2 exceeds the budget {:.1} um2",
                    spec.area_budget_um2
                ));
            }
        }
    }
    let spec = ArchSpec::from_config("check", &design.arch, &tech(), Bandwidths::default());
    let eval = evaluate(&prob, &spec, &design.mapping).map_err(|e| format!("referee: {e:?}"))?;
    if eval.energy_pj.to_bits() != design.energy_pj.to_bits()
        || eval.cycles.to_bits() != design.cycles.to_bits()
    {
        return Err(format!(
            "referee says {} pJ / {} cycles, program claimed {} pJ / {} cycles",
            eval.energy_pj, eval.cycles, design.energy_pj, design.cycles
        ));
    }
    Ok(score(objective, eval.energy_pj, eval.cycles))
}

/// Compares a score with its recorded reference and returns the ratio
/// (above 1: worse than the reference). The reference file must be intact
/// and hold the key, and the ratio must be finite and positive; how far the
/// ratio is from 1 is for `quality_ratio` to report, not a failed check.
pub fn check_quality(
    reference: &Reference,
    table: &str,
    key: &str,
    score: f64,
) -> Result<f64, String> {
    if !reference.intact {
        return Err("reference file checksum mismatch".into());
    }
    let r = reference
        .score(table, key)
        .ok_or_else(|| format!("no reference for {table}/{key}"))?;
    let ratio = score / r;
    if !(ratio.is_finite() && ratio > 0.0) {
        return Err(format!(
            "{table}/{key}: score {score} against reference {r} gives no ratio"
        ));
    }
    Ok(ratio)
}

/// Executes the loop nest of `mapping` and checks the enumerated fill
/// counts against the analytical ones the referee scores with.
pub fn check_simulated(layer: &ConvLayer, mapping: &Mapping) -> Result<(), String> {
    let prob = to_problem_spec(&layer.workload());
    mapping
        .validate(&prob)
        .map_err(|e| format!("invalid mapping: {e}"))?;
    let sim = simulate_fills(&prob, mapping);
    let model = tensor_traffic(&prob, mapping);
    for (s, m) in sim.per_tensor.iter().zip(&model) {
        if s.reg_fill_words_per_pe_per_tile != m.reg_fill_words_per_pe_per_tile
            || s.sram_fill_words_total != m.sram_fill_words_total
        {
            return Err(format!(
                "{}: simulated fills {}/{} differ from the model's {}/{}",
                s.name,
                s.reg_fill_words_per_pe_per_tile,
                s.sram_fill_words_total,
                m.reg_fill_words_per_pe_per_tile,
                m.sram_fill_words_total
            ));
        }
    }
    if sim.per_tensor.len() != model.len() {
        return Err("simulator and model disagree on the tensor count".into());
    }
    Ok(())
}
