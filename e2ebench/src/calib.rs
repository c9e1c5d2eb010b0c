//! The host's speed, measured by a reference kernel: a fixed amount of
//! work that involves none of the program's code, run between the
//! workload's operations.
//!
//! On a guest of a shared host the vCPUs run at different speeds in
//! different phases, for minutes at a time. On two vCPUs of an Intel Xeon
//! the same `serve` run took 38–42 ms of CPU per query in one phase and
//! 19 ms in another, and a walk of a 1 MiB table took twice as long in
//! the first: the CPU time that an operation costs scales with the phase,
//! and so does the kernel's. The gated figures are therefore operation CPU
//! time over kernel CPU time, measured next to each other, and scaled by
//! [`NOMINAL_MS`] back into ms. The slow phases are mostly contention for
//! the memory system, which slows the program somewhat more than the
//! kernel (in one, raw CPU per `update` read rose 1.9x and the normalised
//! figure 9%), so the ratio narrows the phases' effect rather than
//! removing it.
//!
//! The kernel walks a 1 MiB table, which fits the L2 cache, at random.
//! Each run first reads the whole table untimed, so what the program left
//! in the caches does not change the kernel's time, and a change in the
//! program's own cost cannot hide in it.

use crate::cpu;

/// Table entries: 1 MiB of `u32`.
const TABLE: usize = 1 << 18;
/// Dependent steps per run: about 5 ms.
const STEPS: u32 = 400_000;
/// The kernel's CPU time in ms, in a fast phase of the reference machine
/// (see README.md): the unit that normalised figures are scaled back to.
pub const NOMINAL_MS: f64 = 4.9;

/// The kernel's state.
pub struct Reference {
    table: Vec<u32>,
    state: u32,
}

impl Reference {
    pub fn new() -> Self {
        let table = (0..TABLE as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(13) ^ i)
            .collect();
        Reference {
            table,
            state: 0x2545_F491,
        }
    }

    /// One run, on the calling thread: a chain of data-dependent loads,
    /// multiplies and stores over the table. Returns its CPU time in ms.
    pub fn run(&mut self) -> f64 {
        let warm = self.table.iter().fold(0u32, |a, &v| a.wrapping_add(v));
        let c0 = cpu::thread_ms();
        let mut x = self.state ^ std::hint::black_box(warm);
        for _ in 0..STEPS {
            let i = (x as usize) & (TABLE - 1);
            let v = self.table[i];
            x = (x ^ v).rotate_left(7).wrapping_mul(0x0100_0193);
            if x & 1 == 0 {
                self.table[i] = v.wrapping_add(x);
            }
        }
        self.state = std::hint::black_box(x);
        cpu::thread_ms() - c0
    }
}

/// `cpu_ms` of an operation measured next to a kernel run of `kernel_ms`,
/// in ms at the kernel's nominal speed.
pub fn normalise(cpu_ms: f64, kernel_ms: f64) -> f64 {
    cpu_ms * NOMINAL_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalising_divides_out_the_kernels_slowdown() {
        assert!((normalise(30.0, NOMINAL_MS) - 30.0).abs() < 1e-9);
        assert!((normalise(30.0, 2.0 * NOMINAL_MS) - 15.0).abs() < 1e-9);
        let mut r = Reference::new();
        assert!(r.run() > 0.0);
    }
}
