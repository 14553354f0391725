//! The frozen reference probe.
//!
//! Host time on a shared virtual machine drifts in common mode with what
//! co-located tenants do: a tenant on the sibling hyperthread takes
//! execution ports and private cache, and tenants elsewhere contend for
//! the shared last-level cache. The simulator slows by up to 30% when that
//! happens; a serial ALU loop barely notices. The probe is two fixed
//! kernels, each sensitive to one kind of contention, run on the
//! simulating thread between cells:
//!
//! - a pseudo-random, dependent read-modify-write walk over a 4 MiB
//!   buffer, twice a core's private L2, so it lives in the shared cache
//!   like the simulator's tables;
//! - eight independent multiply/xor/rotate chains, which need the
//!   execution width a sibling hyperthread takes away.
//!
//! A sample `P` is the geometric mean of the two kernel times. Every
//! host-time metric is reported as `raw × P0 / P`, where [`P0_MS`] is a
//! sample's time on a quiet host. README.md has the measurements behind
//! the kernels and sizes.
//!
//! This file belongs to the benchmark, not to the program, so no change to
//! the simulator can speed the probe up. Changing anything here changes
//! the unit of every adjusted metric: do it only in a change that
//! re-measures its baseline.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Walk buffer size in 64-bit words (4 MiB).
const WORDS: usize = 1 << 19;
/// Read-modify-write steps per walk.
const WALK_STEPS: usize = 1 << 16;
/// Iterations of the eight chains per sample.
const CHAIN_STEPS: u64 = 1 << 20;
/// Reference time of one [`Probe::sample`], in milliseconds, on a quiet
/// 2-vCPU 2.1 GHz Xeon host. Adjusted metrics are expressed in that
/// host's time.
pub const P0_MS: f64 = 7.0;

/// The probe's buffer and walk state.
pub struct Probe {
    buf: Vec<u64>,
    state: u64,
}

impl Probe {
    /// Allocates and touches the buffer, then runs one untimed warm-up
    /// sample so that page faults and cold TLBs never reach a timed one.
    pub fn new() -> Probe {
        let mut probe = Probe { buf: (0..WORDS as u64).collect(), state: 0x9E37_79B9_7F4A_7C15 };
        probe.sample();
        probe
    }

    /// One timed sample: the geometric mean of the two kernels' times.
    pub fn sample(&mut self) -> Duration {
        let start = Instant::now();
        black_box(self.walk());
        let walk = start.elapsed();
        let start = Instant::now();
        black_box(chains());
        let chains = start.elapsed();
        Duration::from_secs_f64((walk.as_secs_f64() * chains.as_secs_f64()).sqrt())
    }

    /// `WALK_STEPS` dependent read-modify-writes at pseudo-random indices:
    /// each index is derived from the word just read, so the walk is bound
    /// by memory latency, like the simulator's own table lookups.
    fn walk(&mut self) -> u64 {
        let mask = WORDS - 1;
        let mut x = self.state;
        for _ in 0..WALK_STEPS {
            let i = (x >> 17) as usize & mask;
            let v = self.buf[i];
            self.buf[i] = v.wrapping_add(x);
            x = (x ^ v).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(29);
        }
        self.state = x;
        x
    }
}

/// Eight independent multiply/xor/rotate chains: throughput-bound on the
/// core's integer execution ports.
fn chains() -> [u64; 8] {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..CHAIN_STEPS {
        for (k, x) in (0u64..).zip(lanes.iter_mut()) {
            *x = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i + k)).rotate_left(17);
        }
        lanes = black_box(lanes);
    }
    lanes
}
