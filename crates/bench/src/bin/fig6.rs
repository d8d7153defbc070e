//! Fig. 6 — execution trace of the cascade-evaluation kernels for one
//! video frame: per-kernel start/end timestamps across CUDA streams,
//! showing the small-scale kernels executing completely overlapped under
//! concurrent kernel execution (and strictly one-after-another in serial
//! mode).
//!
//! Usage: `fig6 [--frame N]`. Writes `results/fig6_trace_{concurrent,
//! serial}.csv` and prints an ASCII lane chart of the cascade kernels.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::harness::paper_config;
use fd_bench::out::{arg_usize, write_csv};
use fd_detector::FaceDetector;
use fd_gpu::{ExecMode, Timeline};
use fd_video::movie_trailers;

fn dump(mode_name: &str, timeline: &Timeline) {
    let rows: Vec<Vec<String>> = timeline
        .events
        .iter()
        .map(|e| {
            vec![
                e.launch_idx.to_string(),
                e.stream.index().to_string(),
                e.kernel_name.to_string(),
                format!("{:.3}", e.t_start_us),
                format!("{:.3}", e.t_end_us),
                e.blocks.to_string(),
            ]
        })
        .collect();
    let path = write_csv(
        &format!("fig6_trace_{mode_name}.csv"),
        &["launch", "stream", "kernel", "t_start_us", "t_end_us", "blocks"],
        &rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
}

fn ascii_lanes(timeline: &Timeline, kernel: &str) -> String {
    let cascade: Vec<_> =
        timeline.events.iter().filter(|e| e.kernel_name == kernel).collect();
    if cascade.is_empty() {
        return String::new();
    }
    let t0 = cascade.iter().map(|e| e.t_start_us).fold(f64::INFINITY, f64::min);
    let t1 = cascade.iter().map(|e| e.t_end_us).fold(0.0f64, f64::max);
    let width = 88.0;
    let scale = width / (t1 - t0).max(1e-9);
    let mut out = String::new();
    for e in &cascade {
        let a = ((e.t_start_us - t0) * scale).round() as usize;
        let b = (((e.t_end_us - t0) * scale).round() as usize).max(a + 1);
        let mut line = vec![b' '; width as usize + 1];
        for c in line.iter_mut().take(b.min(width as usize + 1)).skip(a) {
            *c = b'#';
        }
        out.push_str(&format!(
            "stream {:>2} |{}| {:7.1}..{:7.1} us ({} blocks)\n",
            e.stream.index(),
            String::from_utf8(line).unwrap(),
            e.t_start_us,
            e.t_end_us,
            e.blocks
        ));
    }
    out
}

fn main() {
    let frame_idx = arg_usize("--frame", 0);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = movie_trailers().into_iter().find(|t| t.title == "50/50").unwrap();
    let trailer = info.generate(frame_idx + 1);
    let frame = trailer.render_frame(frame_idx);

    let mut overlap_summary = Vec::new();
    for (mode, name) in [(ExecMode::Concurrent, "concurrent"), (ExecMode::Serial, "serial")] {
        let mut det = FaceDetector::new(&pair.ours, paper_config(mode));
        let r = det.detect(&frame).expect("detect");
        println!(
            "\n=== {name} mode: frame span {:.3} ms, SM occupancy {:.1}% ===",
            r.detect_ms,
            100.0 * r.timeline.sm_utilization()
        );
        println!("{}", ascii_lanes(&r.timeline, "cascade_eval"));
        dump(name, &r.timeline);

        // Overlap metric: total kernel-duration sum over span; > 1 means
        // kernels genuinely overlap.
        let dur_sum: f64 = r.timeline.events.iter().map(|e| e.duration_us()).sum();
        let overlap = dur_sum / (r.detect_ms * 1000.0);
        overlap_summary.push((name, r.detect_ms, overlap));
    }
    println!();
    for (name, ms, overlap) in overlap_summary {
        println!("{name:<11} span {ms:7.3} ms, kernel-time/span = {overlap:.2} (>1 = overlapped)");
    }
}
