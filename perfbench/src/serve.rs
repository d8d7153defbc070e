//! `serve_small`: open-loop Poisson arrivals of 64x48 pattern frames into
//! a four-lane `FleetServer` with the serving defaults and 50 ms
//! deadlines. Arrival times are virtual, so the generator is never late.
//!
//! op = one request of the nominal rung; item = one request.

use std::time::Instant;

use fd_bench::loadgen::submit_open_loop_fleet;
use fd_detector::{DetectorConfig, FaceDetector};
use fd_haar::Cascade;
use fd_serve::{
    CompletedRequest, Detector, FleetConfig, FleetServer, Priority, RequestOutcome, ServeStats,
};

use crate::report::Report;
use crate::stats::{
    layer_sum_error, max_rate, median, quantile, Rung, Summary, LAYER_SUM_TOLERANCE,
};
use crate::trace::{detector_layers, device_layers, TracedDetector};
use crate::{repeated_setup, Ctx, Fnv, CASCADE_PATH};

const DEVICES: usize = 4;
const WIDTH: usize = 64;
const HEIGHT: usize = 48;
const SLO_US: f64 = 50_000.0;
const PRIORITY: Priority = Priority::Standard;
/// The nominal rung: the rate the latency metrics are read at.
const NOMINAL_RPS: f64 = 100_000.0;
const NOMINAL_REQUESTS: usize = 2000;
/// Rates from light load to past the fleet's capacity.
pub const LADDER_RPS: [f64; 7] = [50e3, 100e3, 150e3, 200e3, 250e3, 300e3, 350e3];
/// Requests per ladder rung: the fewest for which p99 has ten samples
/// beyond it.
const LADDER_REQUESTS: usize = 1000;
/// The latency limit `max_rate_rps` is read against.
const P99_LIMIT_MS: f64 = 2.0;
/// Requests in the set-up's warm-up call.
const WARMUP_REQUESTS: usize = 8;

pub fn config() -> String {
    format!(
        "serve_small devices={DEVICES} frame={WIDTH}x{HEIGHT} slo_us={SLO_US} priority=standard \
         nominal_rps={NOMINAL_RPS} nominal_requests={NOMINAL_REQUESTS} \
         ladder_requests={LADDER_REQUESTS} p99_limit_ms={P99_LIMIT_MS} cascade={CASCADE_PATH} \
         detector=default serve=default"
    )
}

fn fleet(cascade: &Cascade) -> Result<FleetServer, String> {
    FleetServer::new(
        cascade,
        DetectorConfig::default(),
        DEVICES,
        FleetConfig::default(),
    )
    .map_err(|e| e.to_string())
}

fn traced_fleet(
    cascade: &Cascade,
    reference_check: bool,
) -> Result<FleetServer<TracedDetector>, String> {
    let lanes = FaceDetector::try_new_replicas(cascade, DetectorConfig::default(), DEVICES)
        .map_err(|e| e.to_string())?;
    let lanes = lanes
        .into_iter()
        .map(|d| TracedDetector::new(d, reference_check))
        .collect();
    Ok(FleetServer::from_detectors(lanes, FleetConfig::default()))
}

/// Parse the cascade, build the fleet and serve a few requests through it.
fn setup(seed: u64) -> Result<Cascade, String> {
    let cascade = fd_haar::io::load(CASCADE_PATH).map_err(|e| format!("{CASCADE_PATH}: {e}"))?;
    let mut f = fleet(&cascade)?;
    submit_open_loop_fleet(
        &mut f,
        seed,
        WARMUP_REQUESTS,
        NOMINAL_RPS,
        WIDTH,
        HEIGHT,
        PRIORITY,
        SLO_US,
    );
    f.run();
    Ok(cascade)
}

/// Submit one rung's arrivals and run the fleet to completion; returns
/// the host seconds of `FleetServer::run` alone.
fn serve<D: Detector>(f: &mut FleetServer<D>, seed: u64, n: usize, rate: f64) -> f64 {
    submit_open_loop_fleet(f, seed, n, rate, WIDTH, HEIGHT, PRIORITY, SLO_US);
    let t = Instant::now();
    f.run();
    t.elapsed().as_secs_f64()
}

/// FNV-1a over every observable bit of every completion, in completion
/// order.
fn fingerprint(completed: &[CompletedRequest]) -> u64 {
    let mut h = Fnv::default();
    for c in completed {
        h.eat(c.id.0);
        h.eat(c.arrival_us.to_bits());
        match &c.outcome {
            RequestOutcome::Served {
                dispatched_us,
                completed_us,
                batch_size,
                result,
            }
            | RequestOutcome::Degraded {
                dispatched_us,
                completed_us,
                batch_size,
                result,
                ..
            } => {
                h.eat(dispatched_us.to_bits());
                h.eat(completed_us.to_bits());
                h.eat(*batch_size as u64);
                h.eat(result.detect_ms.to_bits());
                h.eat(result.raw.len() as u64);
                for d in &result.detections {
                    h.eat(d.rect.x as u64);
                    h.eat(d.rect.y as u64);
                    h.eat(u64::from(d.rect.w));
                    h.eat(u64::from(d.score.to_bits()));
                    h.eat(d.neighbors as u64);
                }
            }
            other => h.eat_str(&format!("{other:?}")),
        }
    }
    h.0
}

/// Outcome counts from the completion log, in the order of the
/// accounting identity.
#[derive(Debug, Default, PartialEq)]
struct Outcomes {
    served: u64,
    degraded: u64,
    failed: u64,
    expired: u64,
    evicted: u64,
    rejected: u64,
    shed: u64,
}

impl Outcomes {
    fn of(completed: &[CompletedRequest]) -> Self {
        let mut o = Outcomes::default();
        for c in completed {
            let slot = match c.outcome {
                RequestOutcome::Served { .. } => &mut o.served,
                RequestOutcome::Degraded { .. } => &mut o.degraded,
                RequestOutcome::Failed { .. } => &mut o.failed,
                RequestOutcome::Expired { .. } => &mut o.expired,
                RequestOutcome::Evicted { .. } => &mut o.evicted,
                RequestOutcome::RejectedQueueFull
                | RequestOutcome::RejectedBrownOut
                | RequestOutcome::RejectedFailFast => &mut o.rejected,
                RequestOutcome::ShedLate { .. } => &mut o.shed,
            };
            *slot += 1;
        }
        o
    }

    fn from_stats(s: &ServeStats) -> Self {
        Outcomes {
            served: s.served,
            degraded: s.degraded_completions,
            failed: s.failed,
            expired: s.expired,
            evicted: s.evicted,
            rejected: s.rejected_full + s.rejected_brownout + s.rejected_failfast,
            shed: s.shed_late,
        }
    }

    fn total(&self) -> u64 {
        self.served
            + self.degraded
            + self.failed
            + self.expired
            + self.evicted
            + self.rejected
            + self.shed
    }
}

/// Exact accounting: submitted = served + degraded + failed + expired +
/// evicted + rejected + shed, in both the completion log and the stats.
fn accounting_holds<D: Detector>(f: &FleetServer<D>, submitted: usize) -> bool {
    let log = Outcomes::of(f.completed());
    let stats = f.stats();
    log.total() == submitted as u64
        && stats.submitted == submitted as u64
        && Outcomes::from_stats(&stats) == log
}

/// Arrival-to-completion latency of every request in arrival order, in
/// ms; requests that were not served read `+inf`.
fn latencies_ms(completed: &[CompletedRequest]) -> Vec<f64> {
    let mut by_arrival: Vec<&CompletedRequest> = completed.iter().collect();
    by_arrival.sort_by(|a, b| {
        a.arrival_us
            .total_cmp(&b.arrival_us)
            .then(a.id.0.cmp(&b.id.0))
    });
    by_arrival
        .iter()
        .map(|c| c.latency_us().map_or(f64::INFINITY, |us| us / 1e3))
        .collect()
}

/// One nominal-rung repetition as the timed loop keeps it.
struct Rep {
    run_s: f64,
    fingerprint: u64,
    accounting: bool,
    unserved: u64,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let arrivals = ctx.derive(2);
    let (cascade, setup_s, setups) = repeated_setup(|| setup(ctx.derive(3)))?;
    r.e2e("setup_s", setup_s, setups);

    // The timed loop: the nominal rung, repeated on identical inputs.
    let mut reps = Vec::new();
    let mut first_completed = Vec::new();
    let mut first_stats = ServeStats::default();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut f = fleet(&cascade)?;
        let run_s = serve(&mut f, arrivals, NOMINAL_REQUESTS, NOMINAL_RPS);
        let o = Outcomes::of(f.completed());
        reps.push(Rep {
            run_s,
            fingerprint: fingerprint(f.completed()),
            accounting: accounting_holds(&f, NOMINAL_REQUESTS),
            unserved: NOMINAL_REQUESTS as u64 - o.served - o.degraded,
        });
        if reps.len() == 1 {
            first_stats = f.stats();
            first_completed = f.take_completed();
            r.e2e("peak_rss_mb", crate::peak_rss_mb(), 1);
        }
    }
    let fp0 = reps[0].fingerprint;
    let mismatched = reps.iter().filter(|p| p.fingerprint != fp0).count();
    r.check(
        "completion log repeats across reps",
        mismatched == 0,
        format!("{mismatched} of {} reps differ", reps.len()),
    );
    r.check(
        "nominal accounting is exact",
        reps.iter().all(|p| p.accounting),
        "submitted = served + degraded + failed + expired + evicted + rejected + shed",
    );
    // One more repetition, untimed, through lanes that compare every
    // served frame with the CPU reference (the oracle the plain fleet
    // cannot run without being wrapped).
    let mut f = traced_fleet(&cascade, true)?;
    serve(&mut f, arrivals, NOMINAL_REQUESTS, NOMINAL_RPS);
    let (checked, matched) = (0..DEVICES)
        .map(|d| f.device(d).detector().reference_counts())
        .fold((0, 0), |(c, m), (dc, dm)| (c + dc, m + dm));
    let checking_differs = fingerprint(f.completed()) != fp0;
    drop(f);
    r.check(
        "served raw windows == cpu_ref::detect_cpu",
        checked == NOMINAL_REQUESTS && matched == checked,
        format!("{matched} of {checked} frames match"),
    );
    r.check(
        "checked completion log == timed",
        !checking_differs,
        "the reference-checking repetition repeats the timed one",
    );
    // The timed repetitions and the checking one are the attempted ops.
    r.attempted = ((reps.len() + 1) * NOMINAL_REQUESTS) as u64;
    let checking_failed = if checking_differs {
        NOMINAL_REQUESTS
    } else {
        NOMINAL_REQUESTS - matched
    };
    r.failed = reps
        .iter()
        .map(|p| {
            if p.fingerprint != fp0 || !p.accounting {
                NOMINAL_REQUESTS as u64
            } else {
                p.unserved
            }
        })
        .sum::<u64>()
        + checking_failed as u64;

    let per_request_ms: Vec<f64> = reps
        .iter()
        .map(|p| p.run_s * 1e3 / NOMINAL_REQUESTS as f64)
        .collect();
    let run_total: f64 = reps.iter().map(|p| p.run_s).sum();
    let host = Summary::of(&per_request_ms);
    // Latency percentiles over the requests that completed; requests that
    // did not are counted as failed operations above.
    let served: Vec<f64> = latencies_ms(&first_completed)
        .into_iter()
        .filter(|l| l.is_finite())
        .collect();
    let lat = Summary::of(&served);
    let requests_per_host_s = (reps.len() * NOMINAL_REQUESTS) as f64 / run_total;
    r.e2e("host_ms_p50", host.p50, host.n);
    r.named(
        "requests_per_host_s",
        requests_per_host_s,
        "1/s",
        reps.len(),
    );
    // Virtual-clock figures are printed in every run; the traced run's
    // JSON carries them. 2000 requests support p99 (see `tail_quantile`).
    r.layer("serve.latency_p50_ms", lat.p50, lat.n);
    r.layer("serve.latency_p99_ms", quantile(&served, 0.99), lat.n);
    r.layer("serve.goodput", first_stats.goodput(), NOMINAL_REQUESTS);
    r.note("arrival times are virtual: the open-loop generator is never late");

    if ctx.trace {
        ladder(ctx, &mut r, &cascade)?;
        traced(
            ctx,
            &mut r,
            &cascade,
            arrivals,
            fp0,
            host.p50 * NOMINAL_REQUESTS as f64,
        )?;
        r.layer(
            "detector.cpu_ref_match_frac",
            matched as f64 / checked.max(1) as f64,
            checked,
        );
        queue_layers(&mut r, &first_completed, &first_stats);
    }
    Ok(r)
}

/// The rate ladder: virtual-clock results only, run once per traced run,
/// untimed. Adds its accounting check and `serve.max_rate_rps`.
fn ladder(ctx: &Ctx, r: &mut Report, cascade: &Cascade) -> Result<(), String> {
    let mut rungs = Vec::new();
    let mut ladder_accounting = true;
    for (i, &rate) in LADDER_RPS.iter().enumerate() {
        let mut f = fleet(cascade)?;
        serve(&mut f, ctx.derive(100 + i as u64), LADDER_REQUESTS, rate);
        ladder_accounting &= accounting_holds(&f, LADDER_REQUESTS);
        rungs.push(Rung::from_latencies(rate, &latencies_ms(f.completed())));
    }
    r.check(
        "ladder accounting is exact",
        ladder_accounting,
        "submitted = sum of outcomes",
    );
    let max_rps = max_rate(&rungs, P99_LIMIT_MS);
    let ladder: Vec<String> = rungs
        .iter()
        .map(|g| {
            let p99 = if g.p99_ms.is_finite() {
                format!("{:.3}", g.p99_ms)
            } else {
                "inf".into()
            };
            format!(
                "{}k:p99={p99}ms{}",
                g.rate_rps / 1e3,
                if g.backlog_growing { ",backlog" } else { "" }
            )
        })
        .collect();
    r.note(format!("ladder {}", ladder.join(" ")));
    r.layer(
        "serve.max_rate_rps",
        max_rps.unwrap_or(0.0),
        LADDER_RPS.len(),
    );
    Ok(())
}

/// Virtual-clock queueing metrics of the nominal rung.
fn queue_layers(r: &mut Report, completed: &[CompletedRequest], stats: &ServeStats) {
    let mut wait = Vec::new();
    let mut service = Vec::new();
    for c in completed {
        if let RequestOutcome::Served {
            dispatched_us,
            completed_us,
            ..
        }
        | RequestOutcome::Degraded {
            dispatched_us,
            completed_us,
            ..
        } = c.outcome
        {
            wait.push((dispatched_us - c.arrival_us) / 1e3);
            service.push((completed_us - dispatched_us) / 1e3);
        }
    }
    if wait.is_empty() {
        return;
    }
    r.layer("serve.queue_wait_ms_p50", quantile(&wait, 0.5), wait.len());
    r.layer("serve.queue_wait_ms_p99", quantile(&wait, 0.99), wait.len());
    r.layer(
        "serve.service_ms_p50",
        quantile(&service, 0.5),
        service.len(),
    );
    r.layer(
        "serve.service_ms_p99",
        quantile(&service, 0.99),
        service.len(),
    );
    r.layer(
        "serve.batch_occupancy",
        stats.mean_batch_occupancy(),
        stats.batches as usize,
    );
    r.layer("serve.max_queue_depth", stats.max_queue_depth as f64, 1);
    // Merged fleet stats add the lanes' busy time and keep the longest
    // makespan.
    r.layer(
        "serve.device_busy_frac",
        stats.gpu_busy_us / (DEVICES as f64 * stats.makespan_us),
        DEVICES,
    );
}

/// The nominal rung through traced lanes, for the per-layer metrics.
fn traced(
    ctx: &Ctx,
    r: &mut Report,
    cascade: &Cascade,
    arrivals: u64,
    untraced_fingerprint: u64,
    untraced_run_ms: f64,
) -> Result<(), String> {
    let mut runs = Vec::new();
    let mut calls = Vec::new();
    let (mut plan_s, mut tracing_s) = (0.0, 0.0);
    let mut differ = 0;
    let mut first_rep_calls = 0;
    let (mut steals, mut migrations) = (0u64, 0u64);
    let start = Instant::now();
    while runs.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut f = traced_fleet(cascade, false)?;
        runs.push(serve(&mut f, arrivals, NOMINAL_REQUESTS, NOMINAL_RPS));
        differ += usize::from(fingerprint(f.completed()) != untraced_fingerprint);
        steals += f.router_stats().steals;
        migrations += f.router_stats().migrations;
        for d in 0..DEVICES {
            let lane = f.device(d).detector();
            plan_s += lane.plan_s();
            tracing_s += lane.calls().iter().map(|c| c.tracing_s).sum::<f64>();
            calls.extend_from_slice(lane.calls());
        }
        if runs.len() == 1 {
            first_rep_calls = calls.len();
        }
    }
    let ops = runs.len();
    r.check(
        "traced completion log == untraced",
        differ == 0,
        format!("{differ} of {ops} traced runs differ"),
    );
    r.failed += (differ * NOMINAL_REQUESTS) as u64;
    detector_layers(r, &calls, plan_s, ops, ctx.threads);
    device_layers(r, &calls[..first_rep_calls], 1);

    // The wrapper's own work (span reading, group re-timing) runs inside
    // `FleetServer::run`; it is tracing, not serve bookkeeping.
    let run_total: f64 = runs.iter().sum();
    let detector_s: f64 = calls.iter().map(|c| c.wall_s).sum::<f64>() + plan_s;
    let bookkeeping = run_total - detector_s - tracing_s;
    r.layer("serve.run_s", run_total / ops as f64, ops);
    r.layer("serve.bookkeeping_s", bookkeeping / ops as f64, ops);
    r.layer("serve.steals", steals as f64 / ops as f64, ops);
    r.layer("serve.migrations", migrations as f64 / ops as f64, ops);
    let functional: f64 = calls.iter().map(|c| c.functional_s).sum();
    let err = layer_sum_error(
        run_total,
        &[functional, detector_s - functional, bookkeeping, tracing_s],
    );
    r.layer("trace.layer_sum_err_frac", err, ops);
    r.check(
        "traced layers sum to traced wall",
        err <= LAYER_SUM_TOLERANCE && bookkeeping >= 0.0,
        format!("error {err:.4}, bookkeeping {bookkeeping:.4} s (tolerance {LAYER_SUM_TOLERANCE})"),
    );
    let traced_ms = median(&runs) * 1e3;
    r.layer(
        "trace.overhead_ms",
        (traced_ms - untraced_run_ms) / NOMINAL_REQUESTS as f64,
        ops,
    );
    Ok(())
}
