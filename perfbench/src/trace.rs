//! Tracing from outside the program: wrappers around the public layer
//! boundaries. [`TracedDetector`] stands where a [`FaceDetector`] would
//! (in the frame loop and as a `FleetServer` lane) and records one
//! [`CallRecord`] per call, reading the `Profiler::host_spans` the
//! simulator already emits for the `gpu` layer. [`TracedLearner`] stands
//! where a `GentleBoost` would in `train_cascade` and times each round.
//! Nothing inside the program changes.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use fd_boost::{TrainingSet, WeakLearner};
use fd_detector::{
    cpu_ref, group_detections, Backend, Detector, DetectorError, FaceDetector, FrameResult,
};
use fd_gpu::OccupancyLimit;
use fd_haar::Stump;
use fd_imgproc::GrayImage;

use crate::report::Report;
use crate::stats::{median, Summary};

/// Host and device figures of one call into the detector layer.
#[derive(Debug, Clone, Default)]
pub struct CallRecord {
    /// Host wall time of the call.
    pub wall_s: f64,
    /// First host-span start to last host-span end within the call: the
    /// functional drains of the `gpu` layer.
    pub functional_s: f64,
    /// Sum of the worker spans (busy worker time).
    pub busy_s: f64,
    pub blocks: u64,
    pub launches: u64,
    pub opaque_launches: u64,
    pub frames: usize,
    /// `group_detections` re-timed on each result's raw windows, after
    /// the call (not part of `wall_s`).
    pub group_s: f64,
    /// Host time the wrapper itself spent after the call: reading spans,
    /// re-timing grouping and the optional reference check.
    pub tracing_s: f64,
    /// Virtual device span of the call's submission (every frame of a
    /// batch completes when it drains).
    pub device_ms: f64,
    pub sm_utilization: f64,
    pub theoretical_occupancy: f64,
    /// Launches per occupancy-limiting factor.
    pub limits: BTreeMap<&'static str, u64>,
}

impl CallRecord {
    /// Launch counts in [`OccupancyLimit::ALL`] order.
    pub fn limit_counts(&self) -> [u64; 5] {
        OccupancyLimit::ALL.map(|l| self.limits.get(l.as_str()).copied().unwrap_or(0))
    }
}

/// A [`FaceDetector`] whose calls are timed and attributed to layers.
pub struct TracedDetector {
    inner: FaceDetector,
    calls: Vec<CallRecord>,
    /// Host time spent planning pyramids (part of the detector layer;
    /// a `Cell` because `pyramid_plan` takes `&self`).
    plan_s: Cell<f64>,
    /// Compare each full-plan result with `cpu_ref::detect_cpu`.
    reference_check: bool,
    ref_checked: usize,
    ref_matched: usize,
}

impl TracedDetector {
    pub fn new(inner: FaceDetector, reference_check: bool) -> Self {
        Self {
            inner,
            calls: Vec::new(),
            plan_s: Cell::new(0.0),
            reference_check,
            ref_checked: 0,
            ref_matched: 0,
        }
    }

    pub fn calls(&self) -> &[CallRecord] {
        &self.calls
    }

    pub fn plan_s(&self) -> f64 {
        self.plan_s.get()
    }

    /// Frames compared with the CPU reference, and how many matched.
    pub fn reference_counts(&self) -> (usize, usize) {
        (self.ref_checked, self.ref_matched)
    }

    /// Time `call` on the inner detector, then record what it did from the
    /// new host spans and the result's timeline. `plan` is the explicit
    /// pyramid plan the call ran (`None`: the full plan).
    fn traced<R>(
        &mut self,
        frames: &[&GrayImage],
        plan: Option<&[(usize, usize)]>,
        call: impl FnOnce(&mut FaceDetector) -> Result<R, DetectorError>,
        results: impl Fn(&R) -> Vec<&FrameResult>,
    ) -> Result<R, DetectorError> {
        let spans_before = self.inner.profiler().host_spans().len();
        let opaque_before = self.inner.profiler().opaque_launches();
        let t0 = Instant::now();
        let out = call(&mut self.inner);
        let wall_s = t0.elapsed().as_secs_f64();
        let after = Instant::now();

        let profiler = self.inner.profiler();
        let spans = &profiler.host_spans()[spans_before..];
        let first = spans.iter().map(|s| s.t_start_us).min_by(f64::total_cmp);
        let last = spans.iter().map(|s| s.t_end_us).max_by(f64::total_cmp);
        let mut rec = CallRecord {
            wall_s,
            functional_s: match (first, last) {
                (Some(a), Some(b)) => (b - a) / 1e6,
                _ => 0.0,
            },
            busy_s: spans.iter().map(|s| s.duration_us()).sum::<f64>() / 1e6,
            blocks: spans.iter().map(|s| s.blocks).sum(),
            opaque_launches: profiler.opaque_launches() - opaque_before,
            frames: frames.len(),
            ..CallRecord::default()
        };
        if let Ok(r) = &out {
            let rs = results(r);
            if let Some(head) = rs.first() {
                let tl = &head.timeline;
                rec.launches = tl.events.len() as u64;
                rec.device_ms = head.detect_ms;
                rec.sm_utilization = tl.sm_utilization();
                rec.theoretical_occupancy = tl.mean_theoretical_occupancy();
                rec.limits = tl.limiting_factor_counts();
            }
            let cfg = self.inner.config();
            let t = Instant::now();
            for fr in &rs {
                std::hint::black_box(group_detections(
                    &fr.raw,
                    cfg.overlap_threshold,
                    cfg.min_neighbors,
                ));
            }
            rec.group_s = t.elapsed().as_secs_f64();
            // Degraded (shed-scale) plans cannot be compared with the
            // full-pyramid CPU reference; `None` is the full plan.
            let full_plan = || match (plan, frames.first()) {
                (Some(p), Some(f)) => self.inner.pyramid_plan(f).is_ok_and(|full| full == p),
                _ => true,
            };
            if self.reference_check && full_plan() {
                for (frame, fr) in frames.iter().zip(&rs) {
                    let want = cpu_ref::detect_cpu(self.inner.cascade(), frame, cfg.scale_factor);
                    self.ref_checked += 1;
                    self.ref_matched += usize::from(want == fr.raw);
                }
            }
        }
        rec.tracing_s = after.elapsed().as_secs_f64();
        self.calls.push(rec);
        out
    }
}

impl Detector for TracedDetector {
    fn backend(&self) -> Backend {
        self.inner.backend()
    }

    fn pyramid_plan(&self, frame: &GrayImage) -> Result<Vec<(usize, usize)>, DetectorError> {
        let t = Instant::now();
        let plan = self.inner.pyramid_plan(frame);
        self.plan_s
            .set(self.plan_s.get() + t.elapsed().as_secs_f64());
        plan
    }

    fn detect_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<Vec<FrameResult>, DetectorError> {
        self.traced(
            frames,
            Some(plan),
            |d| d.detect_batch_with_plan(frames, plan),
            |r| r.iter().collect(),
        )
    }

    fn projected_device_bytes(&self, width: usize, height: usize) -> Result<usize, DetectorError> {
        self.inner.projected_device_bytes(width, height)
    }

    fn const_bytes(&self) -> usize {
        self.inner.const_bytes()
    }

    fn device_bytes(&self) -> usize {
        self.inner.device_bytes()
    }

    /// Replicas are plain, untraced detectors.
    fn try_replicas(&self, n: usize) -> Result<Vec<Box<dyn Detector>>, DetectorError> {
        Detector::try_replicas(&self.inner, n)
    }

    fn detect(&mut self, frame: &GrayImage) -> Result<FrameResult, DetectorError> {
        self.traced(&[frame], None, |d| d.detect(frame), |r| vec![r])
    }
}

/// A weak learner whose boosting rounds are timed.
pub struct TracedLearner<'a> {
    inner: &'a dyn WeakLearner,
    rounds_s: Mutex<Vec<f64>>,
}

impl<'a> TracedLearner<'a> {
    pub fn new(inner: &'a dyn WeakLearner) -> Self {
        Self {
            inner,
            rounds_s: Mutex::new(Vec::new()),
        }
    }

    /// Host seconds of each `fit_round` call so far, and clear them.
    pub fn take_rounds(&self) -> Vec<f64> {
        std::mem::take(
            &mut *self
                .rounds_s
                .lock()
                .expect("round log lock is never poisoned"),
        )
    }
}

impl WeakLearner for TracedLearner<'_> {
    fn fit_round(&self, set: &TrainingSet, weights: &[f64]) -> Stump {
        let t = Instant::now();
        let stump = self.inner.fit_round(set, weights);
        let dt = t.elapsed().as_secs_f64();
        self.rounds_s
            .lock()
            .expect("round log lock is never poisoned")
            .push(dt);
        stump
    }

    fn round_parallel_ops(&self, n_samples: usize) -> u64 {
        self.inner.round_parallel_ops(n_samples)
    }

    fn round_serial_ops(&self, n_samples: usize) -> u64 {
        self.inner.round_serial_ops(n_samples)
    }

    fn n_features(&self) -> usize {
        self.inner.n_features()
    }
}

/// Fill the `gpu` and `detector` layer metrics from the calls a traced
/// run made over `ops` ops (host times are per op).
pub fn detector_layers(
    r: &mut Report,
    calls: &[CallRecord],
    plan_s: f64,
    ops: usize,
    threads: usize,
) {
    let per_op = |x: f64| x / ops.max(1) as f64;
    let sum = |f: fn(&CallRecord) -> f64| calls.iter().map(f).sum::<f64>();
    let n = calls.len();
    let functional = sum(|c| c.functional_s);
    let wall = sum(|c| c.wall_s) + plan_s;
    let blocks = sum(|c| c.blocks as f64);
    let launches = sum(|c| c.launches as f64);
    let frames = sum(|c| c.frames as f64);
    r.layer("gpu.functional_s", per_op(functional), n);
    r.layer(
        "gpu.worker_busy_frac",
        sum(|c| c.busy_s) / (threads as f64 * functional),
        n,
    );
    r.layer("gpu.blocks", per_op(blocks), n);
    r.layer("gpu.blocks_per_host_s", blocks / functional, n);
    r.layer("gpu.launches", per_op(launches), n);
    r.layer(
        "gpu.opaque_launches",
        per_op(sum(|c| c.opaque_launches as f64)),
        n,
    );
    r.layer("detector.calls", per_op(n as f64), n);
    r.layer("detector.call_s", per_op(wall), n);
    let call_ms: Vec<f64> = calls.iter().map(|c| c.wall_s * 1e3).collect();
    let s = Summary::of(&call_ms);
    r.layer("detector.call_ms_p50", s.p50, s.n);
    r.layer("detector.call_ms_tail", s.tail, s.n);
    r.note(format!(
        "detector.call_ms_tail is the p{} of {} calls (the highest percentile with \
         at least ten samples beyond it)",
        s.tail_q * 100.0,
        s.n
    ));
    r.layer(
        "detector.outside_functional_s",
        per_op(wall - functional),
        n,
    );
    r.layer("detector.group_s", per_op(sum(|c| c.group_s)), n);
    r.layer("detector.frames_per_call", frames / n as f64, n);
}

/// Fill the `device` layer metrics from the calls of one pass over the
/// workload's inputs (`ops` ops). Reading one pass, not the whole timed
/// loop, keeps these virtual-clock figures independent of how many
/// repetitions fit in the run, so they repeat bit for bit.
pub fn device_layers(r: &mut Report, first_pass: &[CallRecord], ops: usize) {
    let n = first_pass.len();
    let mean = |f: fn(&CallRecord) -> f64| first_pass.iter().map(f).sum::<f64>() / n as f64;
    let device_ms: Vec<f64> = first_pass.iter().map(|c| c.device_ms).collect();
    r.layer("device.ms_p50", median(&device_ms), n);
    r.layer("device.sm_utilization", mean(|c| c.sm_utilization), n);
    r.layer(
        "device.mean_theoretical_occupancy",
        mean(|c| c.theoretical_occupancy),
        n,
    );
    let launches: u64 = first_pass.iter().map(|c| c.launches).sum();
    let frames: usize = first_pass.iter().map(|c| c.frames).sum();
    r.layer(
        "device.launches_per_frame",
        launches as f64 / frames as f64,
        n,
    );
    let mut limits = [0u64; 5];
    for c in first_pass {
        for (total, k) in limits.iter_mut().zip(c.limit_counts()) {
            *total += k;
        }
    }
    for (l, k) in OccupancyLimit::ALL.iter().zip(limits) {
        r.layer(
            &format!("device.limit.{}", l.as_str()),
            k as f64 / ops as f64,
            n,
        );
    }
}
