//! Fig. 9 — TPR/FP curves for the OpenCV-like feature set and our
//! cascade, at the 15-, 20- and 25-stage operating points.
//!
//! Methodology per §VI-B: detections grouped with `S_eyes`, assigned to
//! ground truth with the Hungarian algorithm, curve produced by sweeping
//! a threshold over the detection score. The corpus is the synthetic
//! mug-shot set (stand-in for SCFace + 3 000 backgrounds; see DESIGN.md).
//!
//! Paper shape to reproduce: discrimination improves with stage count for
//! both cascades, and ours generally dominates the OpenCV-like cascade
//! despite having fewer weak classifiers.
//!
//! The paper's 15/20/25 stage cuts are mapped proportionally onto each
//! trained cascade's actual depth (synthetic negatives support fewer
//! stages than the authors' photo corpus — documented in EXPERIMENTS.md).
//!
//! Usage: `fig9 [--faces N] [--backgrounds M] [--side S]`.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::harness::{equivalent_stage_cut, paper_config};
use fd_bench::out::{arg_usize, write_csv};
use fd_detector::{DetectorConfig, FaceDetector};
use fd_gpu::ExecMode;
use fd_eval::roc::{match_frame, roc_curve, FrameEval};
use fd_eval::scface::MugshotDataset;
use fd_haar::Cascade;

fn evaluate(cascade: &Cascade, ds: &MugshotDataset) -> Vec<FrameEval> {
    let mut det = FaceDetector::new(
        cascade,
        DetectorConfig { min_neighbors: 1, ..paper_config(ExecMode::Concurrent) },
    );
    ds.images
        .iter()
        .map(|img| {
            let r = det.detect(&img.image).expect("detect");
            let truths: Vec<_> = img.truth.iter().cloned().collect();
            match_frame(&r.detections, &truths)
        })
        .collect()
}

fn main() {
    let n_faces = arg_usize("--faces", 120);
    let n_bg = arg_usize("--backgrounds", 200);
    let side = arg_usize("--side", 96);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let ds = MugshotDataset::generate(n_faces, n_bg, side, 0x5CFA);
    println!(
        "[fig9] {} mug shots + {} backgrounds ({}x{}); cascades: ours {} stages, cv {} stages",
        n_faces,
        n_bg,
        side,
        side,
        pair.ours.depth(),
        pair.opencv_like.depth()
    );

    let mut csv = Vec::new();
    for paper_stages in [15usize, 20, 25] {
        println!("\n=== {paper_stages}-stage operating point ===");
        for (name, cascade) in [("ours", &pair.ours), ("opencv-like", &pair.opencv_like)] {
            let cut = equivalent_stage_cut(cascade, paper_stages);
            let truncated = cascade.truncated(cut);
            let evals = evaluate(&truncated, &ds);
            let curve = roc_curve(&evals, 12);
            // Report the loosest point (max TPR) and a mid point.
            let last = curve.last().unwrap();
            println!(
                "  {name:<12} ({cut:>2} stages, {:>4} stumps): TPR {:.3} at {} FP (loosest)",
                truncated.total_stumps(),
                last.tpr,
                last.fp
            );
            for p in &curve {
                csv.push(vec![
                    paper_stages.to_string(),
                    name.to_string(),
                    cut.to_string(),
                    format!("{:.4}", p.threshold),
                    p.fp.to_string(),
                    format!("{:.6}", p.tpr),
                ]);
            }
        }
    }
    let path = write_csv(
        "fig9.csv",
        &["paper_stages", "cascade", "actual_stages", "threshold", "fp", "tpr"],
        &csv,
    )
    .unwrap();
    println!("\nwrote {}", path.display());
}
