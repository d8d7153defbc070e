//! Scaling kernel: builds one pyramid level with bilinear texture fetches.
//!
//! The decoded frame lives in texture memory; each thread computes one
//! output pixel by mapping its center back into the source and issuing a
//! single `tex2D` fetch with linear filtering (paper §III-A) — the
//! fixed-function interpolator does the 4-tap blend.

use fd_gpu::{BlockCtx, DevBuf, Kernel, LaunchConfig, TexId};

/// One launch per pyramid level.
pub struct ScaleKernel {
    /// Source frame texture.
    pub src: TexId,
    /// Source dimensions.
    pub src_w: usize,
    pub src_h: usize,
    /// Destination buffer (`dst_w * dst_h`).
    pub dst: DevBuf<f32>,
    pub dst_w: usize,
    pub dst_h: usize,
}

impl ScaleKernel {
    pub const BLOCK: u32 = 16;

    /// Launch geometry for this kernel.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::tile2d(self.dst_w, self.dst_h, Self::BLOCK, Self::BLOCK)
    }
}

impl Kernel for ScaleKernel {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        // Block shape comes from the launch config; each output pixel is
        // an independent texture gather.
        let bw = ctx.block_dim.x as usize;
        let bh = ctx.block_dim.y as usize;
        let bx = ctx.block_idx.x as usize * bw;
        let by = ctx.block_idx.y as usize * bh;
        let sx = self.src_w as f32 / self.dst_w as f32;
        let sy = self.src_h as f32 / self.dst_h as f32;

        let mut dst = ctx.mem.write(self.dst);
        let mut covered = 0u64;
        for ty in 0..bh {
            let y = by + ty;
            if y >= self.dst_h {
                continue;
            }
            for tx in 0..bw {
                let x = bx + tx;
                if x >= self.dst_w {
                    continue;
                }
                let v = ctx.tex2d(self.src, (x as f32 + 0.5) * sx, (y as f32 + 0.5) * sy);
                dst[y * self.dst_w + x] = v;
                covered += 1;
            }
        }
        drop(dst);

        // Per covered thread: ~6 address ALU ops (as warp instructions) and
        // a 4-byte store; the tex2d call meters fetches itself. The store
        // is buffer-tagged so a fused chain can keep the scaled level
        // on-chip for its consumer.
        let warp = ctx.warp_size() as u64;
        ctx.meter.alu(6 * covered.div_ceil(warp));
        ctx.global_store_buf(self.dst, 4 * covered);
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        // The source is a texture; texture state is flushed ahead of any
        // host-side mutation, so only the buffer write needs declaring.
        set.writes(self.dst);
    }

    fn fusion_traits(&self) -> Option<fd_gpu::FusionTraits> {
        Some(fd_gpu::FusionTraits {
            // The read side is a texture, outside the buffer domain
            // contract; report the output geometry (a chain head's read
            // domain is never matched against a producer).
            read_domain: (self.dst_w, self.dst_h),
            write_domain: (self.dst_w, self.dst_h),
            // Each block writes exactly its own output tile.
            tile_local: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu, Texture2D};
    use fd_imgproc::resize::resize_bilinear;
    use fd_imgproc::GrayImage;

    fn run_scale(src: &GrayImage, dw: usize, dh: usize) -> Vec<f32> {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let tex = gpu.bind_texture(Texture2D::from_data(
            src.width(),
            src.height(),
            src.as_slice().to_vec(),
        ));
        let dst = gpu.mem.alloc::<f32>(dw * dh);
        let k = ScaleKernel {
            src: tex,
            src_w: src.width(),
            src_h: src.height(),
            dst,
            dst_w: dw,
            dst_h: dh,
        };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        gpu.synchronize();
        gpu.mem.download(dst)
    }

    #[test]
    fn matches_host_bilinear_resize_exactly() {
        let src = GrayImage::from_fn(64, 48, |x, y| ((x * 7 + y * 13) % 251) as f32);
        let out = run_scale(&src, 41, 31);
        let reference = resize_bilinear(&src, 41, 31);
        for (i, (a, b)) in out.iter().zip(reference.as_slice()).enumerate() {
            assert!((a - b).abs() < 1e-4, "pixel {i}: gpu {a} vs cpu {b}");
        }
    }

    #[test]
    fn handles_non_multiple_of_block_dims() {
        let src = GrayImage::from_fn(30, 30, |x, _| x as f32);
        let out = run_scale(&src, 17, 9);
        assert_eq!(out.len(), 17 * 9);
        // Monotone gradient survives scaling.
        assert!(out[0] < out[16]);
    }

    #[test]
    fn meters_texture_fetches_and_stores() {
        let src = GrayImage::from_fn(32, 32, |_, _| 1.0);
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let tex = gpu.bind_texture(Texture2D::from_data(32, 32, src.as_slice().to_vec()));
        let dst = gpu.mem.alloc::<f32>(16 * 16);
        let k = ScaleKernel { src: tex, src_w: 32, src_h: 32, dst, dst_w: 16, dst_h: 16 };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        let t = gpu.synchronize();
        let c = &t.events[0].counters;
        assert_eq!(c.tex_fetches, 256);
        assert_eq!(c.global_bytes_written, 1024);
    }
}
