//! Criterion bench: the full per-frame pipeline at several resolutions,
//! serial vs concurrent (the simulation cost of Table II's measurement,
//! and a check that the simulated spans keep the serial > concurrent
//! ordering at every size).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fd_bench::harness::paper_config;
use fd_detector::FaceDetector;
use fd_gpu::ExecMode;
use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
use fd_imgproc::GrayImage;

fn small_cascade() -> Cascade {
    let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
    let g = HaarFeature::from_params(FeatureKind::LineV, 8, 3, 5, 6);
    let mut c = Cascade::new("bench", 24);
    for i in 0..6 {
        let n = 2 + 2 * i;
        let stumps = (0..n)
            .map(|k| Stump {
                feature: if k % 2 == 0 { f } else { g },
                threshold: 128 * (k + 1),
                left: -0.3,
                right: 0.5,
            })
            .collect();
        // Reject-most thresholds: the bench must measure the pipeline,
        // not post-processing of a degenerate accept-everything cascade.
        c.stages.push(Stage { stumps, threshold: 0.25 * n as f32 });
    }
    c
}

fn frame(w: usize, h: usize) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| ((x * 7 + y * 11) % 256) as f32)
}

fn bench_pipeline(c: &mut Criterion) {
    let cascade = small_cascade();
    let mut group = c.benchmark_group("pipeline_frame");
    group.sample_size(10);
    for (w, h) in [(320usize, 180usize), (640, 360)] {
        let img = frame(w, h);
        for (mode, name) in [(ExecMode::Concurrent, "concurrent"), (ExecMode::Serial, "serial")] {
            group.bench_function(BenchmarkId::new(name, format!("{w}x{h}")), |b| {
                let mut det = FaceDetector::new(&cascade, paper_config(mode));
                b.iter(|| black_box(det.detect(black_box(&img)).expect("detect").detect_ms))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
