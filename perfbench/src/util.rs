//! Small shared pieces: a seeded generator, order statistics, process
//! resource probes, and the result-line writer.

use std::fmt::Write as _;

/// SplitMix64: a tiny, well-mixed, seedable generator. The benchmark owns
/// its inputs, so it does not depend on any generator inside the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).value
}

/// Interquartile mean: the mean of a non-empty sample without its lowest
/// and highest quarter. Steadier than the median on small samples, and as
/// deaf to a few outliers.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// A nearest-rank quantile together with the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The quantile actually reported (lower than the one asked for when
    /// the sample is too small; see [`tail_quantile`]).
    pub q: f64,
    pub value: f64,
    /// Sample size.
    pub n: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Nearest-rank quantile `q` of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> Quantile {
    if values.is_empty() {
        return Quantile {
            q,
            value: 0.0,
            n: 0,
            beyond: 0,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Quantile {
        q,
        value: v[rank - 1],
        n: v.len(),
        beyond: v.len() - rank,
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Quantile `q` if at least [`MIN_BEYOND`] samples lie beyond it;
/// otherwise the highest quantile that has them (the median when even that
/// is out of reach). The returned `q` says which one was reported.
pub fn tail_quantile(values: &[f64], q: f64) -> Quantile {
    let n = values.len();
    let wanted = quantile(values, q);
    if wanted.beyond >= MIN_BEYOND || n == 0 {
        return wanted;
    }
    let rank = n.saturating_sub(MIN_BEYOND).max(n.div_ceil(2)).max(1);
    let fallback = quantile(values, rank as f64 / n as f64);
    if fallback.q < 0.5 {
        quantile(values, 0.5)
    } else {
        fallback
    }
}

/// Geometric mean (1 for an empty sample, the neutral ratio).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by this process so far, all threads, including
/// threads that have already exited.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and the clock id is a constant
    // the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads to pin every thread option to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// JSON number: shortest round-trip form, `0` for non-finite input.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// A JSON array of numbers.
pub fn list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| num(*x)).collect();
    format!("[{}]", items.join(", "))
}

/// JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_needs_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = tail_quantile(&v, 0.99);
        assert_eq!((q.value, q.beyond), (990.0, 10));
        let small: Vec<f64> = (1..=40).map(f64::from).collect();
        let q = tail_quantile(&small, 0.99);
        assert_eq!((q.value, q.beyond), (30.0, 10));
        let tiny = [3.0, 1.0, 2.0];
        assert_eq!(tail_quantile(&tiny, 0.9).value, 2.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
    }
}
