//! Per-stage accounting from the spans the optimizer already emits
//! (`optimize_workload`, `perm_enum`, `gp_sweep`, `gp_solve`,
//! `expr_compile`, `integerize`, `rescore`, `pack_spatial`,
//! `condensation`), collected by a `CollectingSink`.

use crate::util::{metric, Metric};
use thistle_obs::{FieldValue, Record, SpanRecord};

/// Stage totals over the cold optimizations of a traced run. Spans nested
/// in an `optimize_near_miss` span on the same thread (the warm-start
/// path of the serving tier) are left out: these numbers describe full
/// permutation sweeps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stages {
    pub layers: u64,
    pub optimize_ns: u64,
    pub perm_enum_ns: u64,
    pub expr_compile_ns: u64,
    pub sweep_ns: u64,
    pub solve_ns: u64,
    pub solves: u64,
    pub classes: u64,
    pub integerize_ns: u64,
    pub candidates: u64,
    pub rescore_ns: u64,
    pub evaluated: u64,
    pub pack_spatial_ns: u64,
    pub condensation_ns: u64,
}

fn field_u64(span: &SpanRecord, key: &str) -> u64 {
    span.fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            FieldValue::U64(x) => Some(*x),
            _ => None,
        })
        .unwrap_or(0)
}

impl Stages {
    pub fn add(&mut self, records: &[Record]) {
        let spans: Vec<&SpanRecord> = records.iter().filter_map(Record::as_span).collect();
        let near: Vec<(u64, u64, u64)> = spans
            .iter()
            .filter(|s| s.name == "optimize_near_miss")
            .map(|s| (s.tid, s.start_ns, s.start_ns + s.dur_ns))
            .collect();
        let in_near = |s: &SpanRecord| {
            near.iter().any(|&(tid, start, end)| {
                tid == s.tid && start <= s.start_ns && s.start_ns + s.dur_ns <= end
            })
        };
        for s in spans {
            if in_near(s) {
                continue;
            }
            let d = s.dur_ns;
            match s.name {
                "optimize_workload" => {
                    self.layers += 1;
                    self.optimize_ns += d;
                }
                "perm_enum" => self.perm_enum_ns += d,
                "expr_compile" => self.expr_compile_ns += d,
                "gp_sweep" => {
                    self.sweep_ns += d;
                    self.classes += field_u64(s, "classes");
                }
                "gp_solve" => {
                    self.solve_ns += d;
                    self.solves += 1;
                }
                "integerize" => {
                    self.integerize_ns += d;
                    self.candidates += field_u64(s, "candidates");
                }
                "rescore" => {
                    self.rescore_ns += d;
                    self.evaluated += field_u64(s, "evaluated");
                }
                "pack_spatial" => self.pack_spatial_ns += d,
                "condensation" => self.condensation_ns += d,
                _ => {}
            }
        }
    }

    /// Adds another run's totals to these.
    pub fn merge(&mut self, other: &Stages) {
        let sum = |a: &mut u64, b: u64| *a += b;
        sum(&mut self.layers, other.layers);
        sum(&mut self.optimize_ns, other.optimize_ns);
        sum(&mut self.perm_enum_ns, other.perm_enum_ns);
        sum(&mut self.expr_compile_ns, other.expr_compile_ns);
        sum(&mut self.sweep_ns, other.sweep_ns);
        sum(&mut self.solve_ns, other.solve_ns);
        sum(&mut self.solves, other.solves);
        sum(&mut self.classes, other.classes);
        sum(&mut self.integerize_ns, other.integerize_ns);
        sum(&mut self.candidates, other.candidates);
        sum(&mut self.rescore_ns, other.rescore_ns);
        sum(&mut self.evaluated, other.evaluated);
        sum(&mut self.pack_spatial_ns, other.pack_spatial_ns);
        sum(&mut self.condensation_ns, other.condensation_ns);
    }

    fn per_layer_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.layers.max(1) as f64
    }

    /// Time inside `optimize_workload` not covered by a named stage.
    pub fn self_ns(&self) -> u64 {
        self.optimize_ns.saturating_sub(
            self.perm_enum_ns
                + self.sweep_ns
                + self.integerize_ns
                + self.rescore_ns
                + self.pack_spatial_ns
                + self.condensation_ns,
        )
    }

    /// Share of traced optimize time spent in `ns`.
    pub fn share(&self, ns: u64) -> f64 {
        ns as f64 / self.optimize_ns.max(1) as f64
    }

    /// Per-layer stage metrics (means over the traced cold optimizations).
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.layers.max(1) as f64;
        vec![
            metric(
                "core.optimize_ms",
                self.per_layer_ms(self.optimize_ns),
                "ms",
            ),
            metric(
                "model.perm_enum_ms",
                self.per_layer_ms(self.perm_enum_ns),
                "ms",
            ),
            metric(
                "expr.compile_ms",
                self.per_layer_ms(self.expr_compile_ns),
                "ms",
            ),
            metric("gp.sweep_ms", self.per_layer_ms(self.sweep_ns), "ms"),
            metric("gp.solve_cpu_ms", self.per_layer_ms(self.solve_ns), "ms"),
            metric("gp.solves", self.solves as f64 / n, "count"),
            metric("gp.classes", self.classes as f64 / n, "count"),
            metric(
                "core.integerize_ms",
                self.per_layer_ms(self.integerize_ns),
                "ms",
            ),
            metric("core.candidates", self.candidates as f64 / n, "count"),
            metric(
                "referee.rescore_ms",
                self.per_layer_ms(self.rescore_ns),
                "ms",
            ),
            metric(
                "referee.ns_per_candidate",
                self.rescore_ns as f64 / self.evaluated.max(1) as f64,
                "ns",
            ),
            metric(
                "core.pack_spatial_ms",
                self.per_layer_ms(self.pack_spatial_ns),
                "ms",
            ),
            metric("core.self_ms", self.per_layer_ms(self.self_ns()), "ms"),
        ]
    }

    /// One-line wire form, for handing stage totals between processes.
    pub fn encode(&self) -> String {
        [
            self.layers,
            self.optimize_ns,
            self.perm_enum_ns,
            self.expr_compile_ns,
            self.sweep_ns,
            self.solve_ns,
            self.solves,
            self.classes,
            self.integerize_ns,
            self.candidates,
            self.rescore_ns,
            self.evaluated,
            self.pack_spatial_ns,
            self.condensation_ns,
        ]
        .map(|v| v.to_string())
        .join(" ")
    }

    pub fn decode(text: &str) -> Option<Stages> {
        let v: Vec<u64> = text
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let [layers, optimize_ns, perm_enum_ns, expr_compile_ns, sweep_ns, solve_ns, solves, classes, integerize_ns, candidates, rescore_ns, evaluated, pack_spatial_ns, condensation_ns] =
            v[..]
        else {
            return None;
        };
        Some(Stages {
            layers,
            optimize_ns,
            perm_enum_ns,
            expr_compile_ns,
            sweep_ns,
            solve_ns,
            solves,
            classes,
            integerize_ns,
            candidates,
            rescore_ns,
            evaluated,
            pack_spatial_ns,
            condensation_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> Record {
        Record::Span(SpanRecord {
            seq: 0,
            name,
            tid,
            depth: 0,
            start_ns,
            dur_ns,
            fields: Vec::new(),
            closed_by_unwind: false,
        })
    }

    #[test]
    fn near_miss_spans_are_left_out() {
        let mut s = Stages::default();
        s.add(&[
            span("optimize_workload", 1, 0, 100),
            span("integerize", 1, 10, 20),
            span("optimize_near_miss", 2, 0, 50),
            span("integerize", 2, 5, 10),
        ]);
        assert_eq!((s.layers, s.integerize_ns, s.self_ns()), (1, 20, 80));
        assert_eq!(Stages::decode(&s.encode()), Some(s));
    }
}
