//! The host's speed, measured by a fixed kernel that shares no code with
//! the system under test.
//!
//! The benchmark runs on shared hosts where the same work takes up to
//! twice as long from one second to the next, while neighbours contend
//! for the cores underneath; the run queue and steal time do not show
//! it. So every thread that does timed work also runs the kernel, often
//! and between its operations (requests, rounds, episodes, set-ups), and
//! the kernel's own time is never counted. Each pass's end-to-end times
//! are scaled by `REFERENCE_KERNEL_MS` over the kernel's median time in
//! that pass, and read as times on a host where the kernel takes
//! `REFERENCE_KERNEL_MS`: a slower host slows the kernel as well and
//! cancels out, while a change to the system leaves the kernel as it was
//! and moves the figure in full.
//!
//! The kernel sorts, hashes, formats digits and multiplies small dense
//! matrices: the integer, branchy and floating-point work the serving
//! and training loops do, on data that fits in the caches. It allocates
//! its buffers once per call, so the system's allocator barely touches
//! it.

use crate::trace;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// The kernel's time on the reference host, in ms: end-to-end times
/// read as if the kernel had taken this long beside them.
pub const REFERENCE_KERNEL_MS: f64 = 1.5;

/// Kernel times taken during one phase of a run.
#[derive(Debug, Default, Clone)]
pub struct HostSpeed {
    /// One time per kernel call, in ms.
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Runs the kernel once on this thread and records its time.
    pub fn sample(&mut self) {
        self.samples_ms.push(timed_kernel());
    }

    /// Kernel times taken elsewhere, in ms.
    #[cfg(test)]
    pub fn from_samples(samples_ms: Vec<f64>) -> Self {
        Self { samples_ms }
    }

    /// Adds another phase's samples to these.
    pub fn extend(&mut self, other: &HostSpeed) {
        self.samples_ms.extend_from_slice(&other.samples_ms);
    }

    /// Time spent in the kernel, in ms.
    pub fn total_ms(&self) -> f64 {
        self.samples_ms.iter().sum()
    }

    /// Median kernel time, in ms; `REFERENCE_KERNEL_MS` before any
    /// sample.
    pub fn kernel_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return REFERENCE_KERNEL_MS;
        }
        trace::median(&mut self.samples_ms.clone())
    }

    /// The factor that turns a time measured beside these samples into a
    /// time on the reference host.
    pub fn scale(&self) -> f64 {
        REFERENCE_KERNEL_MS / self.kernel_ms()
    }
}

fn timed_kernel() -> f64 {
    let start = trace::now();
    std::hint::black_box(kernel());
    trace::secs(start, trace::now()) * 1e3
}

const KEYS: usize = 16_384;
const DIM: usize = 128;
const LAYERS: usize = 40;

/// A fixed amount of work; the result only keeps it from being optimized
/// away.
fn kernel() -> u64 {
    // Sort pseudo-random keys.
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = Vec::with_capacity(KEYS);
    for _ in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push(x);
    }
    keys.sort_unstable();

    // Build and probe a hash table (fixed SipHash keys: the same work
    // in every process).
    let mut table: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(KEYS / 4, BuildHasherDefault::default());
    for (i, k) in keys.iter().enumerate().step_by(4) {
        table.insert(k >> 20, i);
    }
    let mut acc = 0u64;
    for k in keys.iter().step_by(3) {
        acc = acc.wrapping_add(table.get(&(k >> 20)).map_or(1, |&i| i as u64));
    }

    // Format a quarter of the keys as decimal digits.
    let mut digits = [0u8; 20];
    for &k in keys.iter().step_by(4) {
        let (mut v, mut n) = (k, 0);
        loop {
            digits[n] = b'0' + (v % 10) as u8;
            n += 1;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        acc = acc.wrapping_add(digits[..n].iter().map(|&d| d as u64).sum::<u64>());
    }

    // A small dense network's forward passes.
    let weights: Vec<f32> = (0..DIM * DIM).map(|i| (i % 97) as f32 * 0.01).collect();
    let mut h: Vec<f32> = (0..DIM).map(|i| i as f32 * 0.1).collect();
    let mut next = vec![0f32; DIM];
    for _ in 0..LAYERS {
        for (out, row) in next.iter_mut().zip(weights.chunks_exact(DIM)) {
            *out = row.iter().zip(&h).map(|(w, v)| w * v).sum::<f32>().tanh();
        }
        std::mem::swap(&mut h, &mut next);
    }
    acc.wrapping_add(h[0].to_bits() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scale_is_reference_over_median() {
        assert_eq!(HostSpeed::default().scale(), 1.0);
        let host = HostSpeed::from_samples(vec![3.0, 1.0, 6.0]);
        assert_eq!(host.kernel_ms(), 3.0);
        assert_eq!(host.scale(), REFERENCE_KERNEL_MS / 3.0);
    }
}
