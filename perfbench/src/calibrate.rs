//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts: a vCPU runs
//! up to about 1.5x slower while a neighbour loads its sibling hardware
//! thread, for seconds to minutes at a time. Times from one run therefore
//! differ from another run's by the host's load as much as by the
//! program. To take that out, each measuring process reads the host's
//! speed ([`slowdown`]) between its timed operations, by timing a fixed
//! kernel, and divides each time by the reading next to it. The time
//! metrics are thus seconds at the nominal host speed; the raw times go
//! to the info line.
//!
//! The kernel is benchmark code: no change to the program under test can
//! make it faster or slower. It is branchy integer work over a small
//! working set (a sort and an open-addressing hash table), the mix whose
//! speed tracked the optimizer's most closely in trials. It allocates
//! nothing while timed, so the program's heap cannot leak into it.

use crate::util::median;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the reference host (a shared 2-vCPU
/// Sapphire Rapids Xeon VM), in seconds.
pub const NOMINAL_S: f64 = 0.0012;

/// How much more a batch workload slows than the kernel when the host is
/// loaded: its time grows as this power of the kernel's. Fitted on twenty
/// co-design and ten screening runs, where 1.5 left the least spread
/// between runs on both workloads and between the co-design medians of two
/// sets of ten; the power 1 left up to 2.4x as much spread.
pub const BATCH_SENSITIVITY: f64 = 1.5;

/// The same for `serve_mixed`, whose latency is partly timers and loopback
/// I/O that the host's load does not slow: with the power 1 its `pass_s`
/// spread 0.025-0.041 over three sets of ten runs, with 1.5 about 0.09.
pub const SERVE_SENSITIVITY: f64 = 1.0;

const SORT_LEN: usize = 1024;
const SORTS: usize = 48;
const TABLE_SLOTS: usize = 8192;
const KEYS: u64 = 6000;

/// One thread's share of a sample: the kernel's compute time, in seconds.
fn kernel(seed: u64) -> f64 {
    let mut data = vec![0u64; SORT_LEN];
    let mut table = vec![0u64; TABLE_SLOTS];
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let t = Instant::now();
    for _ in 0..SORTS {
        data.iter_mut().for_each(|x| *x = next());
        data.sort_unstable();
        black_box(&data);
    }
    let mask = TABLE_SLOTS as u64 - 1;
    let mut found = 0u64;
    for round in 0..6 {
        for i in 0..KEYS {
            let key = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed) | 1;
            let mut slot = (key >> 51) & mask;
            loop {
                let held = table[slot as usize];
                if held == key {
                    found += 1;
                    break;
                }
                if held == 0 {
                    if round == 0 {
                        table[slot as usize] = key;
                    }
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
    }
    black_box(found);
    t.elapsed().as_secs_f64()
}

/// Times the kernel once on each of `threads` threads at once and returns
/// the mean per-thread time, in seconds.
pub fn sample(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1) as u64)
            .map(|k| scope.spawn(move || kernel(0x5eed + k)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Samples taken per [`slowdown`] reading; it reports their median, so a
/// single preempted sample does not count.
const SAMPLES_PER_READING: usize = 3;

/// How much slower than nominal a workload runs right now: the median of
/// a few [`sample`]s over [`NOMINAL_S`], to the power `sensitivity`
/// ([`BATCH_SENSITIVITY`] or [`SERVE_SENSITIVITY`]). Divide a time
/// measured next to the reading by it to get the time at nominal speed.
pub fn slowdown(threads: usize, sensitivity: f64) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES_PER_READING).map(|_| sample(threads)).collect();
    (median(&samples) / NOMINAL_S).powf(sensitivity)
}

/// The calibration settings, as a JSON object for the info line.
pub fn info() -> String {
    format!(
        "{{\"nominal_s\": {NOMINAL_S}, \"batch_sensitivity\": {BATCH_SENSITIVITY}, \
         \"serve_sensitivity\": {SERVE_SENSITIVITY}, \"samples_per_reading\": {SAMPLES_PER_READING}}}"
    )
}
