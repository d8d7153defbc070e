//! Multi-GPU scale parallelism (Hefenbrock et al., §II) vs the paper's
//! single-GPU concurrent kernels: frame latency as GPUs are added, with
//! the raw-frame PCIe broadcast the on-die decoder avoids.
//!
//! Usage: `ablation_multigpu [--frames N]`.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::harness::paper_config;
use fd_bench::out::{arg_usize, render_table, write_csv};
use fd_detector::multi_gpu::detect_multi_gpu;
use fd_detector::FaceDetector;
use fd_gpu::{DeviceSpec, ExecMode, PcieModel};
use fd_video::movie_trailers;

fn main() {
    let frames = arg_usize("--frames", 2);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = &movie_trailers()[1];
    let trailer = info.generate(frames);
    let pcie = PcieModel::pcie2_x16();

    let mut rows = Vec::new();
    for fi in 0..frames {
        let frame = trailer.render_frame(fi);

        let mut det = FaceDetector::new(&pair.ours, paper_config(ExecMode::Concurrent));
        let single = det.detect(&frame).expect("detect").detect_ms;

        let mut cols = vec![fi.to_string(), format!("{single:.3}")];
        for n_gpus in [2usize, 4] {
            let r = detect_multi_gpu(
                &pair.ours,
                &frame,
                n_gpus,
                &DeviceSpec::gtx470(),
                &pcie,
                1.25,
            )
            .expect("multi-gpu frame");
            cols.push(format!("{:.3} (+{:.2} xfer)", r.frame_ms, r.upload_ms));
        }
        rows.push(cols);
    }
    println!("single GPU + concurrent kernels (paper) vs Hefenbrock-style multi-GPU scale split\n");
    println!(
        "{}",
        render_table(
            &["frame", "1 GPU concurrent ms", "2 GPUs ms", "4 GPUs ms"],
            &rows
        )
    );
    println!(
        "\nthe multi-GPU split is pinned by the device holding scale 0 and pays a raw-frame\nbroadcast per GPU — the paper's single-GPU concurrent kernels avoid both."
    );
    write_csv(
        "ablation_multigpu.csv",
        &["frame", "single_gpu_ms", "two_gpus", "four_gpus"],
        &rows,
    )
    .unwrap();
}
