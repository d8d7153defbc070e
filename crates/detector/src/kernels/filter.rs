//! Anti-aliasing filter kernel (paper §III-A, "Filtering" stage).
//!
//! A 3x3 binomial smoothing (separable 1/4-1/2-1/4) applied to every
//! pyramid level after scaling. The device version stages an 18x18 halo
//! tile in shared memory per 16x16 block, so each input pixel is read from
//! DRAM once; the functional body matches
//! `fd_imgproc::filter::antialias_3tap` bit-for-bit (clamped borders).

use fd_gpu::{BlockCtx, DevBuf, Kernel, LaunchConfig};

pub struct FilterKernel {
    pub src: DevBuf<f32>,
    pub dst: DevBuf<f32>,
    pub width: usize,
    pub height: usize,
}

impl FilterKernel {
    pub const BLOCK: u32 = 16;
    /// Shared-memory request: the (16+2)^2 halo tile.
    pub const SHARED_BYTES: u32 = 18 * 18 * 4;

    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::tile2d(self.width, self.height, Self::BLOCK, Self::BLOCK)
            .with_shared_mem(Self::SHARED_BYTES)
    }
}

impl Kernel for FilterKernel {
    fn name(&self) -> &'static str {
        "filter"
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        // Block shape comes from the launch config; each output pixel
        // only reads its clamped 3x3 source neighbourhood.
        let bw = ctx.block_dim.x as usize;
        let bh = ctx.block_dim.y as usize;
        let bx = ctx.block_idx.x as usize * bw;
        let by = ctx.block_idx.y as usize * bh;
        let (w, h) = (self.width, self.height);

        // Stage the (bw+2)x(bh+2) halo tile (clamped at image borders).
        let tile_w = bw + 2;
        let tile_h = bh + 2;
        let mut tile = ctx.shared_alloc_f32(tile_w * tile_h);
        {
            let src = ctx.mem.read(self.src);
            for ty in 0..tile_h {
                let gy = (by as isize + ty as isize - 1).clamp(0, h as isize - 1) as usize;
                for tx in 0..tile_w {
                    let gx = (bx as isize + tx as isize - 1).clamp(0, w as isize - 1) as usize;
                    tile[ty * tile_w + tx] = src[gy * w + gx];
                }
            }
        }
        ctx.syncthreads();

        let mut dst = ctx.mem.write(self.dst);
        let mut covered = 0u64;
        for ty in 0..bh {
            let y = by + ty;
            if y >= h {
                continue;
            }
            for tx in 0..bw {
                let x = bx + tx;
                if x >= w {
                    continue;
                }
                // Separable binomial: rows then columns over the tile.
                let t = |dx: usize, dy: usize| tile[(ty + dy) * tile_w + (tx + dx)];
                let row = |dy: usize| 0.25 * t(0, dy) + 0.5 * t(1, dy) + 0.25 * t(2, dy);
                dst[y * w + x] = 0.25 * row(0) + 0.5 * row(1) + 0.25 * row(2);
                covered += 1;
            }
        }
        drop(dst);

        let warp = ctx.warp_size() as u64;
        let warps = covered.div_ceil(warp);
        // Halo load: one coalesced read per tile element. Buffer-tagged
        // so a fused launch credits fusion-local traffic to on-chip rates.
        ctx.global_load_buf(self.src, (tile_w * tile_h * 4) as u64);
        ctx.meter.shared((tile_w * tile_h) as u64 / 8);
        // Compute: 9 shared reads + ~10 FLOPs per pixel.
        ctx.meter.shared(9 * warps);
        ctx.meter.alu(10 * warps);
        ctx.global_store_buf(self.dst, 4 * covered);
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        set.reads(self.src).writes(self.dst);
    }

    fn fusion_traits(&self) -> Option<fd_gpu::FusionTraits> {
        Some(fd_gpu::FusionTraits {
            read_domain: (self.width, self.height),
            write_domain: (self.width, self.height),
            // Each block writes only its own tile (the halo is
            // read-side), so consumers may follow in the same launch.
            tile_local: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu};
    use fd_imgproc::filter::antialias_3tap;
    use fd_imgproc::GrayImage;

    fn run_filter(src: &GrayImage) -> Vec<f32> {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let sbuf = gpu.mem.upload(src.as_slice());
        let dbuf = gpu.mem.alloc::<f32>(src.width() * src.height());
        let k = FilterKernel { src: sbuf, dst: dbuf, width: src.width(), height: src.height() };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        gpu.synchronize();
        gpu.mem.download(dbuf)
    }

    #[test]
    fn matches_host_antialias_exactly() {
        let src = GrayImage::from_fn(50, 34, |x, y| ((x * 31 + y * 17) % 255) as f32);
        let out = run_filter(&src);
        let reference = antialias_3tap(&src);
        for (i, (a, b)) in out.iter().zip(reference.as_slice()).enumerate() {
            assert!((a - b).abs() < 1e-3, "pixel {i}: gpu {a} vs cpu {b}");
        }
    }

    #[test]
    fn preserves_constant_images() {
        let src = GrayImage::from_fn(20, 20, |_, _| 123.0);
        let out = run_filter(&src);
        for v in out {
            assert!((v - 123.0).abs() < 1e-4);
        }
    }

    #[test]
    fn requests_shared_memory_for_the_halo() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
        let src = gpu.mem.alloc::<f32>(256);
        let dst = gpu.mem.alloc::<f32>(256);
        let k = FilterKernel { src, dst, width: 16, height: 16 };
        assert_eq!(k.config().shared_mem_bytes, 18 * 18 * 4);
    }
}
