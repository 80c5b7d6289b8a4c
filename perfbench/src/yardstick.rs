//! The host-speed yardstick: a fixed loop timed next to every measured
//! interval, so that the end-to-end host times are stated at one
//! reference host speed.
//!
//! The benchmark runs on shared VMs whose speed moves by 2× and more in
//! phases of seconds to tens of minutes (README.md, "Host noise"), and a
//! median within a run cannot remove a phase that outlasts the run. So
//! every measured interval is bracketed by two readings of the
//! yardstick, and its host seconds are multiplied by [`scale`]. A result
//! then reads as if the host had run the yardstick at its nominal speed.
//! The loop is the benchmark's own code, so a change to the simulator
//! moves the measured interval and leaves the yardstick alone.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one pass.
pub const ITERATIONS: u64 = 4_000_000;

/// Passes behind one reading; their median makes the reading immune to a
/// pass that the kernel or the hypervisor interrupted.
pub const PASSES: usize = 3;

/// Seconds one pass takes at the reference speed: its time on the 2-vCPU
/// Xeon VM the benchmark was tuned on, in a quiet phase.
pub const NOMINAL_S: f64 = 0.0097;

/// How much harder host contention hits the simulator than the yardstick:
/// when a pass takes `c` times its nominal time, a simulation takes about
/// `c^SENSITIVITY` times as long. An ALU loop shares only the core's
/// execution units with whatever else runs on it; the simulator also
/// shares its caches and branch predictors. Fitted on the tuning VM:
/// 10 s windows of back-to-back bfs-1c simulations and passes, across a
/// quiet and a contended phase, gave 2.64 (residual 6%); single runs of
/// all three workloads in a contended phase gave 1.9–3.4.
pub const SENSITIVITY: f64 = 2.5;

/// Times one pass: a xorshift generator folded into an accumulator, with
/// no memory traffic. The generator's state is loaded through
/// [`black_box`], so the loop can be neither precomputed nor removed.
#[must_use]
pub fn pass_seconds() -> f64 {
    let start = Instant::now();
    let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
    let mut acc = 0u64;
    for i in 0..black_box(ITERATIONS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left((i & 63) as u32));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// One reading: the median seconds of [`PASSES`] passes.
#[must_use]
pub fn reading() -> f64 {
    let mut passes = [0.0; PASSES];
    for p in &mut passes {
        *p = pass_seconds();
    }
    passes.sort_by(f64::total_cmp);
    passes[PASSES / 2]
}

/// Factor from host seconds to reference seconds for an interval between
/// readings of `before` and `after` seconds.
#[must_use]
pub fn scale(before: f64, after: f64) -> f64 {
    (2.0 * NOMINAL_S / (before + after)).powf(SENSITIVITY)
}
