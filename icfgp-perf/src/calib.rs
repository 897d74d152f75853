//! The calibration task: fixed, std-only work timed between requests,
//! so that time metrics can be expressed in the speed of the machine
//! at the moment they were measured.
//!
//! Shared machines drift: the same request can take 200 ms for minutes
//! and then 290 ms for minutes, as neighbours come and go. No run
//! length averages that away. The calibration task slows down with the
//! machine, so each timing is reported as `raw × REF_MS / c`, where `c`
//! is the calibration sample taken right after it: that cancels the
//! drift and keeps every change in the program itself. The task is
//! this file's own code and uses nothing from the repository, so no
//! change to the program under test can change it.
//!
//! How the sample is taken was chosen by measurement, on a 2-vCPU
//! machine over 45 twenty-second windows of libxul, driverlib and gcc
//! requests during which the raw window medians drifted by 20–29%
//! (inter-quartile distance over median):
//!
//! * each timing paired with its own sample: 1.5–2.9%; scaling a whole
//!   run by its calibration median instead left 3–12% between runs;
//! * one thread: the two-thread variant of the same work tracked the
//!   drift worse (3–9%), as a request's default pool spends most of
//!   its time on one core;
//! * a fresh process per sample, started and timed exactly like a
//!   request, so that it pays a request's start-up and gets a fresh
//!   memory layout each time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;

/// A fixed constant near the calibration time, in milliseconds, on the
/// machine the baseline was recorded on (2 vCPUs at 2.1 GHz, in its
/// faster state), so scaled times read close to that machine's
/// milliseconds.
pub const REF_MS: f64 = 32.0;

/// The body of one calibration sample (`icfgp-perf calibrate`). The
/// sample is timed from outside, as a whole process
/// ([`Icfgp::calibrate`](crate::icfgp::Icfgp::calibrate)).
pub fn run() {
    black_box(work(black_box(1)));
}

/// A rewrite in miniature: touch fresh pages, build and walk an ordered
/// map of small allocations, print it as JSON-like text, parse numbers
/// back, and sort.
fn work(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let pages: Vec<u64> = (0..1u64 << 20).collect();
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for _ in 0..60_000 {
        let k = next();
        map.insert(
            k % 150_000,
            k.to_le_bytes()[..(k % 8 + 1) as usize].to_vec(),
        );
    }
    let mut text = String::new();
    for (k, v) in &map {
        let _ = write!(text, "{{\"key\":{k},\"len\":{}}},", v.len());
    }
    let parsed: u64 = text
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse::<u64>().ok())
        .fold(0, u64::wrapping_add);
    let mut nums: Vec<u64> = (0..300_000).map(|_| next()).collect();
    nums.sort_unstable();
    pages[(parsed % (1 << 20)) as usize] ^ nums[nums.len() / 2]
}
