//! Developer probe: times one 1080p frame through the pipeline and prints
//! the simulated device timeline summary. Used to size the experiment
//! defaults; not part of the paper's tables.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::harness::paper_config;
use fd_bench::out::arg_usize;
use fd_detector::{DetectorConfig, FaceDetector};
use fd_gpu::ExecMode;
use fd_video::movie_trailers;

fn main() {
    let frames = arg_usize("--frames", 2);
    let budget = if std::env::args().any(|a| a == "--tiny") {
        TrainingBudget::tiny()
    } else {
        TrainingBudget::default()
    };
    let t0 = std::time::Instant::now();
    let pair = trained_cascade_pair(&budget);
    eprintln!(
        "cascades ready in {:.1}s: ours {} stages / {} stumps, cv {} stages / {} stumps",
        t0.elapsed().as_secs_f64(),
        pair.ours.depth(),
        pair.ours.total_stumps(),
        pair.opencv_like.depth(),
        pair.opencv_like.total_stumps()
    );

    // Quick accuracy sanity check on a small mug-shot set.
    let ds = fd_eval::scface::MugshotDataset::generate(40, 40, 96, 0xABCD);
    for (name, cascade) in [("ours", &pair.ours), ("opencv-like", &pair.opencv_like)] {
        let mut det = FaceDetector::new(
            cascade,
            DetectorConfig { min_neighbors: 1, ..paper_config(ExecMode::Concurrent) },
        );
        let mut hits = 0;
        let mut fps = 0;
        for img in &ds.images {
            let r = det.detect(&img.image).expect("detect");
            let truths: Vec<_> = img.truth.iter().cloned().collect();
            let e = fd_eval::roc::match_frame(&r.detections, &truths);
            hits += e.hit_scores.len();
            fps += e.fp_scores.len();
        }
        eprintln!(
            "{name:<12} mugshots: {hits}/{} faces hit, {fps} false positives over {} images",
            ds.total_faces(),
            ds.images.len()
        );
    }

    let info = &movie_trailers()[1]; // 50/50
    let trailer = info.generate(frames);
    let tg = std::time::Instant::now();
    let frame_idx = (0..frames).find(|&i| !trailer.faces_at(i).is_empty()).unwrap_or(0);
    let frame0 = trailer.render_frame(frame_idx);
    eprintln!(
        "frame render: {:.0} ms (frame {frame_idx}, {} ground-truth faces)",
        tg.elapsed().as_secs_f64() * 1000.0,
        trailer.faces_at(frame_idx).len()
    );

    for (name, cascade) in [("ours", &pair.ours), ("opencv-like", &pair.opencv_like)] {
        for mode in [ExecMode::Concurrent, ExecMode::Serial] {
            let mut det = FaceDetector::new(cascade, paper_config(mode));
            let tw = std::time::Instant::now();
            let r = det.detect(&frame0).expect("detect");
            eprintln!(
                "{name:<12} {mode:?}: simulated {:.3} ms, wall {:.2} s, raw {} dets {} groups, util {:.2}",
                r.detect_ms,
                tw.elapsed().as_secs_f64(),
                r.raw.len(),
                r.detections.len(),
                r.timeline.sm_utilization(),
            );
            if std::env::args().any(|a| a == "--breakdown") {
                let mut per: std::collections::BTreeMap<&str, f64> = Default::default();
                for e in &r.timeline.events {
                    *per.entry(e.kernel_name).or_default() += e.duration_us();
                }
                for (k, us) in per {
                    eprintln!("    {k:<14} {:.3} ms total-kernel-time", us / 1000.0);
                }
                // Cascade duration by scale (launch order).
                for e in r.timeline.events.iter().filter(|e| e.kernel_name == "cascade_eval") {
                    eprintln!(
                        "    cascade s{:<2} [{:8.1}..{:8.1}] {:7.1} us {} blocks",
                        e.stream.index(), e.t_start_us, e.t_end_us, e.duration_us(), e.blocks
                    );
                }
            }
        }
    }
}
