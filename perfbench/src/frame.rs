//! `frame_1080p`: a closed loop over one stream of 1920x1080 frames of
//! the "50/50" trailer (the paper's Fig. 5 trailer) through
//! `FaceDetector::detect` with the default configuration.
//!
//! op = one `detect` call; item = one frame.

use std::time::Instant;

use fd_detector::{
    cpu_ref, Detection, Detector, DetectorConfig, DetectorError, FaceDetector, FrameResult,
};
use fd_eval::roc::match_frame;
use fd_eval::scface::Annotation;
use fd_haar::Cascade;
use fd_imgproc::GrayImage;

use crate::report::Report;
use crate::stats::{layer_sum_error, median, Summary, LAYER_SUM_TOLERANCE};
use crate::trace::{detector_layers, device_layers, TracedDetector};
use crate::{repeated_setup, Ctx, Fnv, CASCADE_PATH};

const TRAILER: &str = "50/50";
/// Frames generated for the trailer: 30 s at 24 fps, about ten scenes.
/// The generator keeps every scene's 1080p background in memory, so a
/// longer trailer would make input generation, not the program, set the
/// peak resident set.
const TRAILER_FRAMES: usize = 720;
/// Frames in a run's input set; the loop cycles over them.
const FRAMES: usize = 12;
/// Stream positions between consecutive inputs: 2.5 s of trailer, so
/// every seed samples every scene once or twice and the set mixes the
/// trailer's face counts instead of repeating one scene.
const FRAME_STRIDE: usize = TRAILER_FRAMES / FRAMES;

pub fn config() -> String {
    format!(
        "frame_1080p trailer={TRAILER} trailer_frames={TRAILER_FRAMES} frames={FRAMES} \
         stride={FRAME_STRIDE} cascade={CASCADE_PATH} detector=default"
    )
}

/// The frames a seed selects, with their ground truth.
struct Inputs {
    positions: Vec<usize>,
    frames: Vec<GrayImage>,
    truths: Vec<Vec<Annotation>>,
}

fn inputs(ctx: &Ctx) -> Result<Inputs, String> {
    let info = fd_video::movie_trailers()
        .into_iter()
        .find(|t| t.title == TRAILER)
        .ok_or("the 50/50 trailer is missing from the catalog")?;
    let trailer = info.generate(TRAILER_FRAMES);
    let start = (ctx.derive(1) % TRAILER_FRAMES as u64) as usize;
    let positions: Vec<usize> = (0..FRAMES)
        .map(|i| (start + i * FRAME_STRIDE) % TRAILER_FRAMES)
        .collect();
    let frames = positions.iter().map(|&p| trailer.render_frame(p)).collect();
    let truths = positions
        .iter()
        .map(|&p| {
            trailer
                .faces_at(p)
                .into_iter()
                .map(|f| {
                    let (a, b) = f.eyes;
                    let eye_distance = ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt();
                    Annotation {
                        rect: f.rect,
                        eyes: f.eyes,
                        eye_distance,
                    }
                })
                .collect()
        })
        .collect();
    Ok(Inputs {
        positions,
        frames,
        truths,
    })
}

/// Parse the cascade, build the detector and warm it up on one frame.
fn setup(warm: &GrayImage) -> Result<(Cascade, FaceDetector), String> {
    let cascade = fd_haar::io::load(CASCADE_PATH).map_err(|e| format!("{CASCADE_PATH}: {e}"))?;
    let mut det =
        FaceDetector::try_new(&cascade, DetectorConfig::default()).map_err(|e| e.to_string())?;
    det.detect(warm).map_err(|e| e.to_string())?;
    Ok((cascade, det))
}

fn raw_digest(raw: &[Detection]) -> u64 {
    let mut h = Fnv::default();
    for d in raw {
        h.eat(d.rect.x as u64);
        h.eat(d.rect.y as u64);
        h.eat(u64::from(d.rect.w));
        h.eat(u64::from(d.rect.h));
        h.eat(u64::from(d.score.to_bits()));
        h.eat(d.scale as u64);
    }
    h.0
}

/// What a run keeps of each call: its slot in the input set, host time,
/// and a digest of its output.
struct Call {
    slot: usize,
    host_s: f64,
    raw: u64,
    device_bits: u64,
}

/// Cycle over the input set until `seconds` have passed and every frame
/// ran once. Returns each call, the first result for each frame and the
/// peak resident set after that first pass.
fn closed_loop(
    mut detect: impl FnMut(&GrayImage) -> Result<FrameResult, DetectorError>,
    frames: &[GrayImage],
    seconds: f64,
) -> Result<(Vec<Call>, Vec<FrameResult>, f64), String> {
    let mut calls = Vec::new();
    let mut first = Vec::with_capacity(frames.len());
    let mut rss_mb = 0.0;
    let start = Instant::now();
    while calls.len() < frames.len() || start.elapsed().as_secs_f64() < seconds {
        let slot = calls.len() % frames.len();
        let t = Instant::now();
        let r = detect(&frames[slot]).map_err(|e| e.to_string())?;
        let host_s = t.elapsed().as_secs_f64();
        calls.push(Call {
            slot,
            host_s,
            raw: raw_digest(&r.raw),
            device_bits: r.detect_ms.to_bits(),
        });
        if first.len() < frames.len() {
            first.push(r);
            if first.len() == frames.len() {
                rss_mb = crate::peak_rss_mb();
            }
        }
    }
    Ok((calls, first, rss_mb))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let inp = inputs(ctx)?;
    let ((cascade, mut det), setup_s, setups) = repeated_setup(|| setup(&inp.frames[0]))?;
    r.e2e("setup_s", setup_s, setups);

    let (calls, first, rss_mb) = closed_loop(|f| det.detect(f), &inp.frames, ctx.seconds)?;
    r.e2e("peak_rss_mb", rss_mb, 1);
    drop(det);

    // Checks, outside the timed region: every call's raw windows equal
    // the CPU reference, and every call of a frame repeats the virtual
    // time of its first call bit for bit.
    let reference: Vec<u64> = inp
        .frames
        .iter()
        .map(|f| {
            raw_digest(&cpu_ref::detect_cpu(
                &cascade,
                f,
                DetectorConfig::default().scale_factor,
            ))
        })
        .collect();
    let ref_mismatch = calls.iter().filter(|c| c.raw != reference[c.slot]).count();
    let virt_mismatch = calls
        .iter()
        .filter(|c| c.device_bits != first[c.slot].detect_ms.to_bits())
        .count();
    r.check(
        "raw windows == cpu_ref::detect_cpu",
        ref_mismatch == 0,
        format!("{} of {} calls differ", ref_mismatch, calls.len()),
    );
    r.check(
        "virtual time repeats per frame",
        virt_mismatch == 0,
        format!("{virt_mismatch} of {} calls differ", calls.len()),
    );
    r.attempted = calls.len() as u64;
    r.failed = calls
        .iter()
        .filter(|c| {
            c.raw != reference[c.slot] || c.device_bits != first[c.slot].detect_ms.to_bits()
        })
        .count() as u64;

    let host_ms: Vec<f64> = calls.iter().map(|c| c.host_s * 1e3).collect();
    let host_total: f64 = calls.iter().map(|c| c.host_s).sum();
    let host = Summary::of(&host_ms);
    let device = Summary::of(&first.iter().map(|f| f.detect_ms).collect::<Vec<_>>());
    r.e2e("host_ms_p50", host.p50, host.n);

    let (mut hits, mut fps, mut truths) = (0usize, 0usize, 0usize);
    for (f, t) in first.iter().zip(&inp.truths) {
        let e = match_frame(&f.detections, t);
        hits += e.hit_scores.len();
        fps += e.fp_scores.len();
        truths += e.n_truth;
    }
    let tpr = if truths == 0 {
        0.0
    } else {
        hits as f64 / truths as f64
    };
    let fp_per_frame = fps as f64 / first.len() as f64;
    r.named(
        "frames_per_host_s",
        calls.len() as f64 / host_total,
        "1/s",
        calls.len(),
    );
    // Virtual-clock and accuracy figures are printed in every run; the
    // traced run's JSON carries them.
    r.layer("device.ms_p50", device.p50, device.n);
    r.layer("detector.tpr", tpr, truths);
    r.layer("detector.fp_per_frame", fp_per_frame, first.len());
    r.note(format!(
        "trailer positions {:?}; {truths} ground-truth faces",
        inp.positions
    ));

    if ctx.trace {
        traced(ctx, &mut r, &inp, &reference, &first, host.p50)?;
    }
    Ok(r)
}

/// The same loop through [`TracedDetector`], for the per-layer metrics.
fn traced(
    ctx: &Ctx,
    r: &mut Report,
    inp: &Inputs,
    reference: &[u64],
    untraced_first: &[FrameResult],
    untraced_p50_ms: f64,
) -> Result<(), String> {
    let (_, det) = setup(&inp.frames[0])?;
    let mut det = TracedDetector::new(det, false);
    let (calls, _, _) = closed_loop(|f| Detector::detect(&mut det, f), &inp.frames, ctx.seconds)?;
    let records = det.calls();
    let ops = calls.len();
    detector_layers(r, records, det.plan_s(), ops, ctx.threads);
    device_layers(r, &records[..FRAMES], FRAMES);

    let matched = calls.iter().filter(|c| c.raw == reference[c.slot]).count();
    r.layer(
        "detector.cpu_ref_match_frac",
        matched as f64 / ops as f64,
        ops,
    );
    let differ = calls
        .iter()
        .filter(|c| {
            let u = &untraced_first[c.slot];
            c.raw != raw_digest(&u.raw) || c.device_bits != u.detect_ms.to_bits()
        })
        .count();
    r.check(
        "traced run == untraced run",
        differ == 0 && matched == ops,
        format!("{differ} of {ops} traced calls differ from the untraced outputs"),
    );
    r.failed += differ as u64;

    // Layer sum: the loop's wall time per call against what the layers
    // account for (functional + outside-functional = the wrapper's call
    // time, plus the tracing work the wrapper did after the call).
    let e2e: f64 = calls.iter().map(|c| c.host_s).sum();
    let functional: f64 = records.iter().map(|c| c.functional_s).sum();
    let outside: f64 = records.iter().map(|c| c.wall_s).sum::<f64>() + det.plan_s() - functional;
    let tracing: f64 = records.iter().map(|c| c.tracing_s).sum();
    let err = layer_sum_error(e2e, &[functional, outside, tracing]);
    r.layer("trace.layer_sum_err_frac", err, ops);
    r.check(
        "traced layers sum to traced wall",
        err <= LAYER_SUM_TOLERANCE && functional <= e2e,
        format!("error {:.4} (tolerance {LAYER_SUM_TOLERANCE})", err),
    );
    let traced_p50 = median(&calls.iter().map(|c| c.host_s * 1e3).collect::<Vec<_>>());
    r.layer("trace.overhead_ms", traced_p50 - untraced_p50_ms, ops);
    Ok(())
}
