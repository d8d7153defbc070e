//! Shared pieces of the functional phase: the per-block executor, the
//! parallelism thresholds and host thread-count resolution.
//!
//! Thread blocks of one launch are independent by construction (barriers
//! only exist *inside* a block), so the persistent worker pool (`pool.rs`)
//! fans block chunks out across host threads. Every block runs through
//! `LaunchEnv::run_block`, which meters it into one [`BlockCost`] and
//! one [`KernelCounters`] record; the pool stitches those back together
//! in linear block order, so results are byte-for-byte independent of
//! the thread schedule. Cross-block memory effects are governed by the
//! arena's disjoint-write contract ([`crate::memory`]).
//!
//! Thread count resolution: explicit builder override
//! ([`crate::Gpu::set_host_threads`]) → the `FD_SIM_THREADS` environment
//! variable → `std::thread::available_parallelism()`. Small queues run
//! sequentially regardless, as hand-off overhead would dominate.

use std::sync::OnceLock;

use crate::cost::CostModel;
use crate::kernel::{BlockCtx, Kernel, LaunchConfig};
use crate::memory::{ConstBank, DeviceMemory, Texture2D};
use crate::meter::{KernelCounters, Meter};
use crate::sched::BlockCost;

/// Drains whose estimated work (blocks × threads-per-block) falls below
/// this run sequentially. The old gate was a flat block count, which let a
/// 64-block × 32-thread launch (2 Ki thread-iterations) pay parallel
/// dispatch overhead while a 48-block × 512-thread launch (24 Ki) stayed
/// serial. 16 Ki ≈ the former `64 blocks × 256 threads` break-even point
/// measured for the detector's mid-pyramid kernels: below it, chunk-claim
/// and hand-off costs exceed the block work even on a warm persistent
/// pool.
pub(crate) const PARALLEL_MIN_WORK: u64 = 16_384;

/// Upper bound on blocks per chunk; small enough to balance load on the
/// largest realistic grids, large enough to amortize the per-chunk claim.
pub(crate) const MAX_CHUNK_BLOCKS: usize = 1024;

/// Environment variable selecting the host thread count (`1` forces the
/// sequential path).
pub const THREADS_ENV_VAR: &str = "FD_SIM_THREADS";

/// Resolve the effective host thread count for the functional phase.
/// The environment lookup happens once per process (`OnceLock`): the
/// resolver runs on every launch, and `std::env::var` takes a process
/// lock that would serialize otherwise-independent launch enqueues.
pub(crate) fn resolve_host_threads(override_threads: Option<usize>) -> usize {
    if let Some(n) = override_threads {
        return n.max(1);
    }
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    let env_threads = *ENV_THREADS.get_or_init(|| {
        std::env::var(THREADS_ENV_VAR).ok().and_then(|v| v.trim().parse::<usize>().ok())
    });
    if let Some(n) = env_threads {
        return n.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Everything the functional phase produces for one launch.
pub(crate) struct FunctionalResult {
    /// Per-block timing costs, indexed by linear block id.
    pub block_costs: Vec<BlockCost>,
    /// Counters summed over blocks in linear order.
    pub totals: KernelCounters,
}

/// Shared read-only state for one launch's functional phase.
pub(crate) struct LaunchEnv<'a> {
    pub mem: &'a DeviceMemory,
    pub constants: &'a ConstBank,
    pub textures: &'a [Texture2D],
    pub cost: &'a CostModel,
    pub warp_size: u32,
}

impl LaunchEnv<'_> {
    pub(crate) fn run_block(
        &self,
        kernel: &dyn Kernel,
        cfg: &LaunchConfig,
        lin: u64,
    ) -> (BlockCost, KernelCounters) {
        let meter = Meter::new();
        let mut ctx = BlockCtx::new(
            cfg.grid.from_linear(lin),
            cfg.grid,
            cfg.block,
            self.mem,
            &meter,
            self.constants,
            self.textures,
            self.warp_size,
            cfg.shared_mem_bytes,
        );
        kernel.run_block(&mut ctx);
        let c = meter.snapshot();
        let bc = BlockCost {
            issue_cycles: self.cost.issue_cycles(&c),
            mem_latency_cycles: self.cost.mem_latency_cycles(&c),
            mem_bytes: c.global_bytes(),
        };
        (bc, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim3;

    #[test]
    fn thread_resolution_prefers_override() {
        assert_eq!(resolve_host_threads(Some(3)), 3);
        assert_eq!(resolve_host_threads(Some(0)), 1, "zero clamps to one");
        assert!(resolve_host_threads(None) >= 1);
    }

    #[test]
    fn from_linear_round_trips_in_parallel_grids() {
        let grid = Dim3::d2(37, 11);
        for lin in 0..grid.count() {
            assert_eq!(grid.linear_index(grid.from_linear(lin)), lin);
        }
    }
}
