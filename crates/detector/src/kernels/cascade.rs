//! The cascade-evaluation kernel (paper §III-C) — the pipeline's most
//! resource-intensive stage and the subject of the paper's optimization
//! study.
//!
//! Geometry follows the paper exactly: the integral image is divided into
//! 24x24 chunks, one thread block per chunk, one thread per sliding-window
//! origin. Each thread cooperatively stages **4 integral pixels** into the
//! block's shared 48x48 tile (Eqs. 1-4 with `n = m = 24`), three of which
//! belong to regions explored by neighbouring blocks' windows; a barrier
//! then opens SIMT evaluation.
//!
//! Stump records are fetched from constant memory in their compressed
//! 3-word form (§III-C: thresholds/coordinates/dimensions/weights packed
//! into 16-bit and 5-bit fields) — since all threads of a warp read the
//! same record at the same time, each read is a single broadcast. Memory
//! accounting matches the paper: a 2-rectangle feature costs 18 accesses
//! (8 shared tile reads + 10 attribute halfwords), a 3-rectangle feature
//! 27.
//!
//! Early rejection is warp-granular: a warp keeps iterating stages while
//! any lane is still alive; a stage-exit branch on which the active lanes
//! disagree is metered as divergent (the statistic behind the paper's
//! 98.9 % branch-efficiency figure). Every thread writes the deepest stage
//! it reached to the output array, which the display stage thresholds.

use std::sync::Arc;

use fd_gpu::{BlockCtx, ConstPtr, DevBuf, Kernel, LaunchConfig};
use fd_haar::encode::quantize_cascade;
use fd_haar::Cascade;

/// A stump precompiled for tile-relative evaluation: per rectangle the
/// four corner offsets within the 48-wide shared tile, plus its weight.
#[derive(Debug, Clone, Copy)]
struct PreStump {
    /// Corner offsets `[dd, du, ld, lu]` per rectangle.
    offs: [[u32; 4]; 4],
    weights: [i32; 4],
    nrects: u32,
    threshold: i32,
    left: f32,
    right: f32,
}

#[derive(Debug, Clone)]
struct PreStage {
    stumps: Vec<PreStump>,
    threshold: f32,
}

/// One launch per pyramid level.
pub struct CascadeKernel {
    /// Inclusive integral image of the level (`width x height`).
    pub integral: DevBuf<u32>,
    pub width: usize,
    pub height: usize,
    /// Deepest stage reached, per pixel.
    pub depth_out: DevBuf<u32>,
    /// Accumulated stage margins, per pixel (detection confidence).
    pub score_out: DevBuf<f32>,
    /// The compressed cascade resident in constant memory (metering and
    /// size accounting; the functional copy below decodes to the same
    /// values — enforced in [`CascadeKernel::new`]).
    pub const_ptr: ConstPtr,
    stages: Arc<Vec<PreStage>>,
    window: usize,
    /// Ablation: constant-memory words fetched per stump record
    /// (3 = the paper's compressed encoding; 10 = naive uncompressed
    /// records: per-rectangle coordinates, dimensions and weights plus
    /// threshold and leaves as full words).
    pub const_words_per_stump: u64,
    /// Ablation: when `false`, rectangle corners are fetched from global
    /// memory instead of the cooperative shared tile (4 scattered 4-byte
    /// reads per rectangle per lane), modelling a kernel without the
    /// Eqs. 1-4 staging.
    pub use_shared_tile: bool,
}

impl CascadeKernel {
    /// Threads per block side; one thread per window origin in a
    /// `BLOCK x BLOCK` chunk.
    pub const BLOCK: u32 = 24;
    /// Shared tile side: `2 * BLOCK` (Eqs. 1-4).
    pub const TILE: u32 = 48;
    /// Shared-memory request for the tile.
    pub const SHARED_BYTES: u32 = Self::TILE * Self::TILE * 4;

    /// Precompile `cascade` for this level. The cascade must already be
    /// quantized to the constant-memory grid (so the functional results
    /// equal what the device would compute from `const_ptr`).
    pub fn new(
        cascade: &Cascade,
        integral: DevBuf<u32>,
        width: usize,
        height: usize,
        depth_out: DevBuf<u32>,
        score_out: DevBuf<f32>,
        const_ptr: ConstPtr,
    ) -> Self {
        assert_eq!(cascade.window, Self::BLOCK, "kernel is specialized for 24-px windows");
        debug_assert_eq!(
            quantize_cascade(cascade),
            *cascade,
            "cascade must be pre-quantized to the constant-memory grid"
        );
        let tile_w = Self::TILE;
        let stages = cascade
            .stages
            .iter()
            .map(|st| PreStage {
                threshold: st.threshold,
                stumps: st
                    .stumps
                    .iter()
                    .map(|s| {
                        let mut offs = [[0u32; 4]; 4];
                        let mut weights = [0i32; 4];
                        for (i, r) in s.feature.rects().iter().enumerate() {
                            let (rx, ry) = (r.x as u32, r.y as u32);
                            let (rw, rh) = (r.w as u32, r.h as u32);
                            offs[i] = [
                                (ry + rh) * tile_w + rx + rw,
                                ry * tile_w + rx + rw,
                                (ry + rh) * tile_w + rx,
                                ry * tile_w + rx,
                            ];
                            weights[i] = r.weight as i32;
                        }
                        PreStump {
                            offs,
                            weights,
                            nrects: s.feature.rects().len() as u32,
                            threshold: s.threshold,
                            left: s.left,
                            right: s.right,
                        }
                    })
                    .collect(),
            })
            .collect();
        Self {
            integral,
            width,
            height,
            depth_out,
            score_out,
            const_ptr,
            stages: Arc::new(stages),
            window: Self::BLOCK as usize,
            const_words_per_stump: 3,
            use_shared_tile: true,
        }
    }

    /// Ablation constructor: naive uncompressed constant-memory records.
    pub fn with_uncompressed_records(mut self) -> Self {
        self.const_words_per_stump = 10;
        self
    }

    /// Ablation constructor: skip the shared-memory tile staging.
    pub fn without_shared_tile(mut self) -> Self {
        self.use_shared_tile = false;
        self
    }

    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::tile2d(self.width, self.height, Self::BLOCK, Self::BLOCK)
            .with_shared_mem(Self::SHARED_BYTES)
    }

    pub fn n_stages(&self) -> u32 {
        self.stages.len() as u32
    }
}

impl Kernel for CascadeKernel {
    fn name(&self) -> &'static str {
        "cascade_eval"
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let b = Self::BLOCK as usize;
        let tile_w = Self::TILE as usize;
        let bx = ctx.block_idx.x as usize * b;
        let by = ctx.block_idx.y as usize * b;
        let (w, h) = (self.width, self.height);

        // ---- Cooperative tile load (Eqs. 1-4): thread (x, y) brings the
        // four pixels (x,y), (x+n,y), (x,y+m), (x+n,y+m) of the 48x48
        // neighbourhood the block's windows touch. Tile (0,0) maps to
        // integral entry (bx-1, by-1); entries left/above the image are
        // zero.
        let mut tile = ctx.shared_alloc_u32(tile_w * tile_w);
        {
            let integral = ctx.mem.read(self.integral);
            for ty in 0..tile_w {
                let gy = by as isize + ty as isize - 1;
                for tx in 0..tile_w {
                    let gx = bx as isize + tx as isize - 1;
                    tile[ty * tile_w + tx] = if gx < 0 || gy < 0 || gx >= w as isize || gy >= h as isize
                    {
                        0
                    } else {
                        integral[gy as usize * w + gx as usize]
                    };
                }
            }
        }
        // Coalesced 4-byte loads covering the tile + the matching shared
        // stores (whole-warp transactions, four rounds per thread).
        let threads = (b * b) as u64;
        let warp = ctx.warp_size() as u64;
        let block_warps = threads.div_ceil(warp);
        if self.use_shared_tile {
            let tile_entries = (tile_w * tile_w) as u64;
            ctx.meter.global_load(4 * tile_entries);
            ctx.meter.shared(tile_entries.div_ceil(threads) * block_warps);
            ctx.syncthreads();
        }

        // ---- Warp-granular cascade evaluation.
        let mut depth_out = ctx.mem.write(self.depth_out);
        let mut score_out = ctx.mem.write(self.score_out);

        // Local metering accumulators (flushed once per block).
        let mut m_const = 0u64;
        let mut m_shared = 0u64;
        let mut m_global_scatter = 0u64;
        let mut m_alu = 0u64;
        let mut m_branches = 0u64;
        let mut m_divergent = 0u64;

        let n_stages = self.stages.len();
        ctx.for_each_warp(|_, lanes| {
            let lane_count = lanes.len();
            let mut active = [false; 32];
            let mut depth = [0u32; 32];
            let mut score = [0.0f32; 32];
            let mut done_score = [0.0f32; 32];
            let mut n_active = 0usize;
            for (li, t) in lanes.clone().enumerate() {
                let tx = (t as usize) % b;
                let ty = (t as usize) / b;
                let ox = bx + tx;
                let oy = by + ty;
                active[li] = ox + self.window <= w && oy + self.window <= h;
                if active[li] {
                    n_active += 1;
                }
            }
            if n_active > 0 {
                'stages: for (si, stage) in self.stages.iter().enumerate() {
                    let mut sums = [0.0f32; 32];
                    for stump in &stage.stumps {
                        // Stump record broadcast from constant memory
                        // (3 words compressed, 10 uncompressed).
                        m_const += self.const_words_per_stump;
                        if self.use_shared_tile {
                            // Tile reads: 4 per rectangle per lane; one
                            // transaction per access step for the warp.
                            m_shared += 4 * stump.nrects as u64;
                        } else {
                            // Scattered global reads: 4 corners per
                            // rectangle per active lane, uncoalesced.
                            m_global_scatter += 16 * stump.nrects as u64 * n_active as u64;
                        }
                        m_alu += 4 * stump.nrects as u64 + 6;
                        // Uniform loop-control branch.
                        m_branches += 1;
                        for (li, t) in lanes.clone().enumerate() {
                            if !active[li] {
                                continue;
                            }
                            let tx = (t as usize) % b;
                            let ty = (t as usize) / b;
                            let base = ty * tile_w + tx;
                            let mut resp = 0i64;
                            for r in 0..stump.nrects as usize {
                                let o = &stump.offs[r];
                                let s = tile[base + o[0] as usize] as i64
                                    - tile[base + o[1] as usize] as i64
                                    - tile[base + o[2] as usize] as i64
                                    + tile[base + o[3] as usize] as i64;
                                resp += stump.weights[r] as i64 * s;
                            }
                            sums[li] += if (resp as i32) < stump.threshold {
                                stump.left
                            } else {
                                stump.right
                            };
                        }
                    }
                    // Stage-exit branch.
                    let mut passed = 0usize;
                    let mut failed = 0usize;
                    for li in 0..lane_count {
                        if !active[li] {
                            continue;
                        }
                        score[li] += sums[li] - stage.threshold;
                        if sums[li] >= stage.threshold {
                            depth[li] = si as u32 + 1;
                            passed += 1;
                        } else {
                            active[li] = false;
                            done_score[li] = score[li];
                            failed += 1;
                        }
                    }
                    m_branches += 1;
                    m_alu += 3;
                    if passed > 0 && failed > 0 {
                        m_divergent += 1;
                    }
                    if passed == 0 {
                        break 'stages;
                    }
                }
            }
            // Write back depth and score for the warp's lanes.
            for (li, t) in lanes.clone().enumerate() {
                let tx = (t as usize) % b;
                let ty = (t as usize) / b;
                let ox = bx + tx;
                let oy = by + ty;
                if ox >= w || oy >= h {
                    continue;
                }
                let final_score = if active[li] { score[li] } else { done_score[li] };
                let valid = ox + self.window <= w && oy + self.window <= h;
                depth_out[oy * w + ox] = if valid { depth[li] } else { 0 };
                score_out[oy * w + ox] =
                    if valid { final_score } else { f32::NEG_INFINITY };
            }
            let _ = n_stages;
        });

        ctx.meter.constant(m_const);
        ctx.meter.shared(m_shared);
        ctx.meter.global_load(m_global_scatter);
        ctx.meter.alu(m_alu);
        ctx.meter.branches(m_branches, m_divergent);
        // Depth + score stores: 8 bytes per covered pixel.
        let covered_w = (w - bx).min(b);
        let covered_h = (h - by).min(b);
        ctx.meter.global_store(8 * (covered_w * covered_h) as u64);
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        set.reads(self.integral).writes(self.depth_out).writes(self.score_out);
    }

    fn registers_per_thread(&self) -> u32 {
        // The footprint class of the real sm_20 kernel: window origin,
        // running score, stump decode scratch and the tile base pointer
        // stay live across the stage loop.
        22
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu};
    use fd_haar::encode::encode_cascade;
    use fd_haar::{FeatureKind, HaarFeature, Stage, Stump};
    use fd_imgproc::{GrayImage, IntegralImage};

    /// Build a quantized single-stage contrast cascade.
    fn contrast_cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("t", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 1024, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 1024, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        quantize_cascade(&c)
    }

    /// Device inclusive integral from a host image.
    fn device_integral(img: &GrayImage) -> Vec<u32> {
        let ii = IntegralImage::from_gray(img);
        let (w, h) = (img.width(), img.height());
        let mut out = vec![0u32; w * h];
        for y in 0..h {
            for x in 0..w {
                out[y * w + x] = ii.at(x + 1, y + 1);
            }
        }
        out
    }

    fn run_cascade(c: &Cascade, img: &GrayImage) -> (Vec<u32>, Vec<f32>, fd_gpu::Timeline) {
        let (w, h) = (img.width(), img.height());
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let integral = gpu.mem.upload(&device_integral(img));
        let depth = gpu.mem.alloc::<u32>(w * h);
        let score = gpu.mem.alloc::<f32>(w * h);
        let cp = gpu.const_upload(&encode_cascade(c));
        let k = CascadeKernel::new(c, integral, w, h, depth, score, cp);
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        let t = gpu.synchronize();
        (gpu.mem.download(depth), gpu.mem.download(score), t)
    }

    #[test]
    fn matches_cpu_reference_on_random_image() {
        let img = GrayImage::from_fn(64, 48, |x, y| {
            ((x as u32 * 37 + y as u32 * 101).wrapping_mul(2654435761) >> 24) as f32
        });
        let c = contrast_cascade();
        let (depth, score, _) = run_cascade(&c, &img);
        let ii = IntegralImage::from_gray(&img);
        for oy in 0..=48 - 24 {
            for ox in 0..=64 - 24 {
                let r = c.eval_window(&ii, ox, oy);
                assert_eq!(depth[oy * 64 + ox], r.depth, "depth at ({ox},{oy})");
                assert!(
                    (score[oy * 64 + ox] - r.score).abs() < 1e-4,
                    "score at ({ox},{oy}): gpu {} cpu {}",
                    score[oy * 64 + ox],
                    r.score
                );
            }
        }
    }

    #[test]
    fn invalid_origins_get_zero_depth() {
        let img = GrayImage::from_fn(40, 40, |x, _| if x < 20 { 0.0 } else { 255.0 });
        let c = contrast_cascade();
        let (depth, score, _) = run_cascade(&c, &img);
        // Origins beyond (w-24, h-24) are invalid.
        assert_eq!(depth[39], 0);
        assert_eq!(score[39], f32::NEG_INFINITY);
        assert_eq!(depth[39 * 40 + 39], 0);
    }

    #[test]
    fn detects_the_contrast_pattern_it_was_built_for() {
        // Strong left-dark/right-bright edge at the window the feature
        // expects: depth must reach 2 (both stages) at origin (0, 0).
        let img = GrayImage::from_fn(24, 24, |x, _| if x < 12 { 0.0 } else { 255.0 });
        let c = contrast_cascade();
        let (depth, _, _) = run_cascade(&c, &img);
        assert_eq!(depth[0], 2);
    }

    #[test]
    fn meters_paper_access_counts_per_stump() {
        // One 2-rect stump on a flat 47x47 image: block (0,0) has all 576
        // window origins valid (47 - 24 = 23), the other three blocks of
        // the 2x2 grid have none, so exactly 18 warps evaluate the stage.
        let img = GrayImage::from_fn(47, 47, |_, _| 100.0);
        let mut c = contrast_cascade();
        c.stages.truncate(1);
        let (_, _, t) = run_cascade(&c, &img);
        let counters = &t.events[0].counters;
        // 18 active warps, 1 stump: 3 constant broadcasts each.
        assert_eq!(counters.const_broadcasts, 18 * 3);
        // Branches: per active warp 1 stump loop + 1 stage exit.
        assert_eq!(counters.branches, 36);
        // Flat image, warp-uniform outcome: no divergence.
        assert_eq!(counters.divergent_branches, 0);
    }

    #[test]
    fn divergence_is_detected_when_lanes_disagree() {
        // A sharp edge inside one warp's windows: some pass, some fail.
        let img = GrayImage::from_fn(48, 25, |x, _| if x < 18 { 0.0 } else { 255.0 });
        let mut c = contrast_cascade();
        c.stages.truncate(1);
        let (depth, _, t) = run_cascade(&c, &img);
        // Some windows accept (edge within feature) and some reject.
        let accepted: u32 = depth.iter().sum();
        assert!(accepted > 0, "at least one window must accept");
        assert!(depth.contains(&0));
        assert!(t.events[0].counters.divergent_branches > 0, "expected divergence");
        // Branch efficiency still high (most warps are uniform).
        assert!(t.events[0].counters.branch_efficiency() > 0.5);
    }

    #[test]
    #[should_panic(expected = "24-px windows")]
    fn rejects_non_24px_cascades() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
        let c = Cascade::new("w32", 32);
        let b = gpu.mem.alloc::<u32>(1);
        let s = gpu.mem.alloc::<f32>(1);
        let cp = gpu.const_upload(&[0]);
        let _ = CascadeKernel::new(&c, b, 1, 1, b, s, cp);
    }
}
