//! `train_gentle`: `train_cascade` with `GentleBoost` on synthetic faces
//! and bootstrapped negatives, at a fixed budget: four stages, every
//! 23rd feature of the enumeration, 500 faces, 400 negatives per stage.
//!
//! Every stage fits exactly eight stumps, so every call runs 32 boosting
//! rounds whatever the seed, and host time compares across seeds.
//!
//! op = one `train_cascade` call; item = one boosting round.

use std::time::Instant;

use fd_boost::{
    initial_weights, synth_faces, train_cascade, GentleBoost, NegativeSource, StageGoals,
    TrainedCascade, TrainerConfig, TrainingSet, WeakLearner,
};
use fd_haar::{enumerate_features, EnumerationRule, WINDOW};
use fd_imgproc::GrayImage;

use crate::report::Report;
use crate::stats::{layer_sum_error, median, Summary, LAYER_SUM_TOLERANCE};
use crate::trace::TracedLearner;
use crate::{repeated_setup, Ctx};

const FEATURE_STRIDE: usize = 23;
const FACES: usize = 500;
const NEGATIVES_PER_STAGE: usize = 400;
const STAGES: usize = 4;
const BOOTSTRAP_BUDGET: usize = 400_000;
const STUMPS_PER_STAGE: usize = 8;
/// The rate goals of the repository's default training budget, with the
/// stump count pinned.
const GOALS: StageGoals = StageGoals {
    min_detection_rate: 0.997,
    max_false_positive_rate: 0.45,
    max_stumps_per_stage: STUMPS_PER_STAGE,
    min_stumps_per_stage: STUMPS_PER_STAGE,
};

pub fn config() -> String {
    format!(
        "train_gentle learner=gentle feature_stride={FEATURE_STRIDE} faces={FACES} \
         negatives_per_stage={NEGATIVES_PER_STAGE} stages={STAGES} \
         bootstrap_budget={BOOTSTRAP_BUDGET} goals={GOALS:?}"
    )
}

fn trainer_config(seed: u64) -> TrainerConfig {
    TrainerConfig {
        goals: GOALS,
        max_stages: STAGES,
        negatives_per_stage: NEGATIVES_PER_STAGE,
        bootstrap_budget: BOOTSTRAP_BUDGET,
        seed,
        verbose: false,
    }
}

/// Compile the feature pool into the learner and warm it up with one
/// boosting round.
fn setup(faces: &[GrayImage], negative_seed: u64) -> Result<GentleBoost, String> {
    let features: Vec<_> = enumerate_features(WINDOW, EnumerationRule::Icpp2012)
        .into_iter()
        .step_by(FEATURE_STRIDE)
        .collect();
    let learner = GentleBoost::new(features);
    let negatives = NegativeSource::new(negative_seed).initial(NEGATIVES_PER_STAGE);
    let set = TrainingSet::from_samples(
        faces
            .iter()
            .map(|f| (f, 1.0f32))
            .chain(negatives.iter().map(|n| (n, -1.0f32))),
    );
    std::hint::black_box(learner.fit_round(&set, &initial_weights(&set)));
    Ok(learner)
}

/// One training call and what the checks need of it.
struct Call {
    host_s: f64,
    trained: TrainedCascade,
    text: String,
}

fn train(learner: &dyn WeakLearner, faces: &[GrayImage], ctx: &Ctx) -> Call {
    let mut negatives = NegativeSource::new(ctx.derive(5));
    let cfg = trainer_config(ctx.derive(6));
    let t = Instant::now();
    let trained = train_cascade(learner, "bench-gentle", faces, &mut negatives, &cfg);
    let host_s = t.elapsed().as_secs_f64();
    let text = fd_haar::io::to_text(&trained.cascade);
    Call {
        host_s,
        trained,
        text,
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let faces = synth_faces(FACES, ctx.derive(4));
    let (learner, setup_s, setups) = repeated_setup(|| setup(&faces, ctx.derive(5)))?;
    r.e2e("setup_s", setup_s, setups);

    let mut calls = Vec::new();
    let start = Instant::now();
    while calls.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        calls.push(train(&learner, &faces, ctx));
        if calls.len() == 1 {
            r.e2e("peak_rss_mb", crate::peak_rss_mb(), 1);
        }
    }
    let valid = calls
        .iter()
        .filter(|c| c.trained.cascade.validate().is_ok())
        .count();
    let same = calls.iter().filter(|c| c.text == calls[0].text).count();
    r.check(
        "cascade passes Cascade::validate",
        valid == calls.len(),
        format!("{valid} of {}", calls.len()),
    );
    r.check(
        "stump sequence repeats across calls",
        same == calls.len(),
        format!("{same} of {} calls equal the first", calls.len()),
    );
    r.attempted = calls.len() as u64;
    r.failed = calls
        .iter()
        .filter(|c| c.text != calls[0].text || c.trained.cascade.validate().is_err())
        .count() as u64;

    let host_ms: Vec<f64> = calls.iter().map(|c| c.host_s * 1e3).collect();
    let host = Summary::of(&host_ms);
    let host_total: f64 = calls.iter().map(|c| c.host_s).sum();
    let rounds: usize = calls.iter().map(|c| c.trained.rounds).sum();
    let first = &calls[0].trained;
    r.e2e("host_ms_p50", host.p50, host.n);
    r.named(
        "rounds_per_host_s",
        rounds as f64 / host_total,
        "1/s",
        rounds,
    );
    r.note(format!(
        "{} stages, {} rounds, {} stumps per stage",
        first.cascade.depth(),
        first.rounds,
        first
            .stages
            .iter()
            .map(|s| s.stumps.to_string())
            .collect::<Vec<_>>()
            .join("/")
    ));

    if ctx.trace {
        traced(ctx, &mut r, &learner, &faces, &calls[0].text, host.p50)?;
    }
    Ok(r)
}

/// The same calls through [`TracedLearner`], for the `boost` layer.
fn traced(
    ctx: &Ctx,
    r: &mut Report,
    learner: &GentleBoost,
    faces: &[GrayImage],
    untraced_text: &str,
    untraced_p50_ms: f64,
) -> Result<(), String> {
    let traced = TracedLearner::new(learner);
    let mut calls = Vec::new();
    let mut rounds_s = Vec::new();
    let start = Instant::now();
    while calls.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        calls.push(train(&traced, faces, ctx));
        rounds_s.push(traced.take_rounds());
    }
    let ops = calls.len();
    let differ = calls.iter().filter(|c| c.text != untraced_text).count();
    r.check(
        "traced stump sequence == untraced",
        differ == 0,
        format!("{differ} of {ops} traced calls differ"),
    );
    r.failed += differ as u64;

    let e2e: f64 = calls.iter().map(|c| c.host_s).sum();
    let fit: f64 = rounds_s.iter().flatten().sum();
    let rounds: usize = rounds_s.iter().map(Vec::len).sum();
    let ops_total: u64 = calls.iter().map(|c| c.trained.parallel_ops).sum();
    let outside = e2e - fit;
    let round_ms: Vec<f64> = rounds_s.iter().flatten().map(|s| s * 1e3).collect();
    r.layer("boost.fit_round_s", fit / ops as f64, rounds);
    r.layer("boost.fit_round_ms_p50", median(&round_ms), rounds);
    r.layer("boost.rounds", rounds as f64 / ops as f64, ops);
    r.layer("boost.row_ops_per_host_s", ops_total as f64 / fit, rounds);
    r.layer("boost.outside_rounds_s", outside / ops as f64, ops);
    let err = layer_sum_error(e2e, &[fit, outside]);
    r.layer("trace.layer_sum_err_frac", err, ops);
    r.check(
        "traced layers sum to traced wall",
        err <= LAYER_SUM_TOLERANCE && outside >= 0.0,
        format!("error {err:.4}, outside rounds {outside:.4} s (tolerance {LAYER_SUM_TOLERANCE})"),
    );
    let traced_p50 = median(&calls.iter().map(|c| c.host_s * 1e3).collect::<Vec<_>>());
    r.layer("trace.overhead_ms", traced_p50 - untraced_p50_ms, ops);
    Ok(())
}
