//! The DES-plane workload `des_days`: the Table II fib day, then the
//! Table III var day, each a 24-hour paper day over 2,239 nodes
//! reproduced end to end through `hpcwhisk_core::run_day` and the
//! `DayReport` perspectives on one thread. The fib day runs a
//! fixed-length pilot queue (set A1); the var day runs variable-length
//! pilots whose extension is a backfill computation (set C2).

use crate::out::thread_cpu;
use crate::speed::{Sampler, KERNEL_REF_US};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::Outcome;
use cluster::AvailabilityTrace;
use hpcwhisk_core::{lengths, run_day, DayConfig, DayReport};
use simcore::SimDuration;
use std::time::{Duration, Instant};
use workload::IdleModel;

/// Trace generations timed for `setup_s` (the median is reported),
/// enough for some 30 host-speed samples to fall among them.
const SETUP_REPEATS: usize = 61;

/// Fewest reproductions of the pair of days a run makes, however long
/// they take.
const MIN_PAIRS: usize = 3;

/// One of the two paper days.
struct Day {
    /// Suffix of the day's per-layer metrics.
    tag: &'static str,
    model: fn() -> IdleModel,
    /// The seed the paper's table was produced with. The idle trace is
    /// always the paper's day at this seed; `--seed n` runs the day's
    /// own randomness (demand noise, client load, warm-ups) at
    /// `paper_seed + n`, so `--seed 0` is the table itself.
    paper_seed: u64,
    config: fn(u64) -> DayConfig,
    lengths: fn() -> Vec<u64>,
    /// The table rows at the paper seed, as this code base reproduces
    /// them.
    reference: Rows,
}

/// The Table II/III figures the output check compares: Simulation
/// coverage, Slurm-level used share, acceptance and OW-level average
/// healthy invokers.
#[derive(Debug, Clone, Copy)]
struct Rows {
    coverage: f64,
    used: f64,
    acceptance: f64,
    healthy_avg: f64,
}

/// How far a paper-seed row may sit from the reference. Cross-process
/// runs of one seed differ slightly (see `des.report_mismatches`); the
/// tolerance covers that jitter and nothing more.
const ROW_TOLERANCE: Rows = Rows {
    coverage: 0.005,
    used: 0.005,
    acceptance: 0.002,
    healthy_avg: 0.05,
};

const DAYS: [Day; 2] = [
    Day {
        tag: "fib",
        model: IdleModel::fib_day,
        paper_seed: IdleModel::FIB_DAY_SEED,
        config: DayConfig::fib_paper,
        lengths: || lengths::A1.to_vec(),
        reference: Rows {
            coverage: 0.9591,
            used: 0.9710,
            acceptance: 0.9936,
            healthy_avg: 9.94,
        },
    },
    Day {
        tag: "var",
        model: IdleModel::var_day,
        paper_seed: IdleModel::VAR_DAY_SEED,
        config: DayConfig::var_paper,
        lengths: lengths::c2,
        reference: Rows {
            coverage: 0.8678,
            used: 0.7709,
            acceptance: 0.8574,
            healthy_avg: 5.18,
        },
    },
];

/// On-CPU times of one day reproduction (s), read from the thread's CPU
/// clock: the day runs on one thread and does no I/O, so this is its
/// wall time less what preemption and the hypervisor took.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    run_day: f64,
    offline: f64,
    report: f64,
}

impl Times {
    fn total(&self) -> f64 {
        self.run_day + self.offline + self.report
    }

    fn scaled(self, f: f64) -> Times {
        Times {
            run_day: self.run_day * f,
            offline: self.offline * f,
            report: self.report * f,
        }
    }
}

/// Reproduce one day: `run_day`, the clairvoyant bound and the
/// Slurm-/OW-level report.
fn reproduce(
    day: &Day,
    trace: &AvailabilityTrace,
    seed: u64,
    tr: Option<&mut Tracer>,
) -> (Times, DayReport, Rows) {
    let (t0, c0) = (Instant::now(), thread_cpu());
    let mut rep = run_day(trace, (day.config)(seed));
    let (t1, c1) = (Instant::now(), thread_cpu());
    let sim = rep.simulation((day.lengths)());
    let (t2, c2) = (Instant::now(), thread_cpu());
    let slurm = rep.slurm_level();
    let ow = rep.ow_level();
    let (t3, c3) = (Instant::now(), thread_cpu());
    if let Some(tr) = tr {
        let turn = tr.record("client.turn", None, t0, Instant::now(), None);
        tr.record("core.run_day", Some(turn), t0, t1, None);
        tr.record("core.simulation", Some(turn), t1, t2, None);
        tr.record("core.report", Some(turn), t2, t3, None);
    }
    let rows = Rows {
        coverage: sim.coverage(),
        used: slurm.used_share,
        acceptance: rep.acceptance_rate(),
        healthy_avg: ow.healthy.3,
    };
    let times = Times {
        run_day: (c1 - c0).as_secs_f64(),
        offline: (c2 - c1).as_secs_f64(),
        report: (c3 - c2).as_secs_f64(),
    };
    (times, rep, rows)
}

/// Reproduce both days repeatedly for about `seconds` and report.
pub fn run(seed: u64, seconds: f64, mut tr: Option<&mut Tracer>) -> Outcome {
    let horizon = SimDuration::from_hours(24);
    let mut o = Outcome::default();

    // Set-up: the two traces are the fixtures. Every time from here on
    // is taken to the reference speed with the host speed sampled
    // during it (see `speed`); the builds are short, so they share one
    // reading.
    let sampler = Sampler::start();
    let mut kernel_us = Vec::new();
    let mut setup = Vec::new();
    let mut gen_ms = [Vec::new(), Vec::new()];
    let mut traces = Vec::new();
    let (r0, cpu0) = (sampler.reading(), thread_cpu());
    for _ in 0..SETUP_REPEATS {
        let c0 = thread_cpu();
        traces.clear();
        for (d, day) in DAYS.iter().enumerate() {
            let (start, cpu) = (Instant::now(), thread_cpu());
            traces.push((day.model)().generate(horizon, day.paper_seed));
            let (end, cpu_end) = (Instant::now(), thread_cpu());
            if let Some(tr) = tr.as_deref_mut() {
                tr.record("workload.generate", None, start, end, None);
            }
            gen_ms[d].push((cpu_end - cpu).as_secs_f64() * 1e3);
        }
        setup.push((thread_cpu() - c0).as_secs_f64());
    }
    let builds = sampler.reading().since(&r0);
    let Some(f) = builds.to_reference((thread_cpu() - cpu0).as_secs_f64()) else {
        o.failures
            .push("no host-speed sample fell in the set-up builds".into());
        return o;
    };
    kernel_us.extend(builds.kernel_us());
    for v in setup.iter_mut().chain(gen_ms.iter_mut().flatten()) {
        *v *= f;
    }
    o.e2e.set("setup_s", median(&setup));
    let mut intervals = 0;
    for (d, day) in DAYS.iter().enumerate() {
        let trace = &traces[d];
        intervals += trace.n_intervals();
        o.layer.set(
            &format!("workload.trace_gen_ms.{}", day.tag),
            median(&gen_ms[d]),
        );
        o.notes.push(format!(
            "input {}: {} nodes, {} idle intervals (trace seed {}), day seed {}",
            day.tag,
            trace.n_nodes(),
            trace.n_intervals(),
            day.paper_seed,
            day.paper_seed.wrapping_add(seed)
        ));
        // The demand claims run_day derives from the trace, timed alone.
        if let Some(tr) = tr.as_deref_mut() {
            let cfg = (day.config)(day.paper_seed.wrapping_add(seed));
            // It takes under a sample period, so the set-up's reading
            // takes it to the reference speed.
            let (t0, c0) = (Instant::now(), thread_cpu());
            let claims = cfg.demand.claims_for(trace, cfg.seed);
            let (t1, c1) = (Instant::now(), thread_cpu());
            tr.record("workload.claims_for", None, t0, t1, None);
            std::hint::black_box(claims);
            o.layer.set(
                &format!("workload.claims_ms.{}", day.tag),
                (c1 - c0).as_secs_f64() * f * 1e3,
            );
        }
    }
    o.layer.set("input.trace_intervals", intervals as f64);

    // Measure: reproduce the pair of days until the time is used up.
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut pair_s: Vec<f64> = Vec::new();
    let mut times: [Vec<Times>; 2] = [Vec::new(), Vec::new()];
    let mut first: Vec<(DayReport, Rows)> = Vec::new();
    let mut last_wall = Duration::ZERO;
    while pair_s.len() < MIN_PAIRS || started.elapsed() + last_wall <= budget {
        let pair_start = Instant::now();
        let mut pair = 0.0;
        for (d, day) in DAYS.iter().enumerate() {
            let day_seed = day.paper_seed.wrapping_add(seed);
            let r0 = sampler.reading();
            let (t, rep, rows) = reproduce(day, &traces[d], day_seed, tr.as_deref_mut());
            let span = sampler.reading().since(&r0);
            kernel_us.extend(span.kernel_us());
            let Some(f) = span.to_reference(t.total()) else {
                o.failures
                    .push(format!("no host-speed sample fell in the {} day", day.tag));
                return o;
            };
            let t = t.scaled(f);
            check_books(day, &rep, &mut o);
            pair += t.total();
            times[d].push(t);
            if first.len() == d {
                first.push((rep, rows));
            }
        }
        pair_s.push(pair);
        last_wall = pair_start.elapsed();
    }

    // The unit of work is reproducing both tables: its latency is the
    // on-CPU time of the thread doing it, at the reference speed. A run
    // holds only a handful of pairs, so p90 is an upper reading between
    // the slowest ones, not a tail with ten samples beyond it.
    let pairs_ms = Dist::new(pair_s.iter().map(|s| s * 1e3).collect());
    let (mut submitted, mut success) = (0, 0);
    for (d, day) in DAYS.iter().enumerate() {
        let (rep, rows) = &mut first[d];
        if seed == 0 {
            check_rows(day, rows, &mut o);
        }
        submitted += rep.whisk_counters.submitted;
        success += rep.whisk_counters.success;
        report_day(day, rep, rows, &times[d], &mut o);
    }
    o.notes.push(format!(
        "pair on-CPU times at the reference speed, in run order (ms): {:.0?}",
        pair_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    ));
    drop(sampler);
    o.notes.push(format!(
        "host speed: kernel median {:.1} us over {} spans (reference {KERNEL_REF_US} us), range {:.1}-{:.1} us",
        median(&kernel_us),
        kernel_us.len(),
        kernel_us.iter().copied().fold(f64::INFINITY, f64::min),
        kernel_us.iter().copied().fold(0.0, f64::max),
    ));
    o.layer.set("machine.kernel_us", median(&kernel_us));
    o.cost = pairs_ms.pct(50.0);
    o.attempted = pair_s.len() as u64;
    o.failed = 0;
    o.lat_samples = pairs_ms.n();
    // Requests reproduced per second of the median pair: the inverse of
    // `lat_p50_ms` scaled by the fixed request count, so one reading.
    o.e2e
        .set("ops_per_s", submitted as f64 / (pairs_ms.pct(50.0) / 1e3));
    o.e2e.set("lat_p50_ms", pairs_ms.pct(50.0));
    o.e2e.set("lat_p90_ms", pairs_ms.pct(90.0));
    o.e2e.set(
        "served_pct",
        100.0 * success as f64 / submitted.max(1) as f64,
    );
    o.fingerprint = DAYS
        .iter()
        .zip(&first)
        .flat_map(|(day, (rep, _))| fingerprint(day, rep))
        .collect();
    o
}

/// Notes and per-layer readings of one day.
fn report_day(day: &Day, rep: &mut DayReport, rows: &Rows, times: &[Times], o: &mut Outcome) {
    let tag = day.tag;
    let of = |f: fn(&Times) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let run_s = of(|t| t.run_day);
    let offline_ms = of(|t| t.offline) * 1e3;
    let report_ms = of(|t| t.report) * 1e3;
    let day_s = of(Times::total);
    o.notes.push(format!(
        "{tag} day: coverage {:.2}%, used {:.2}%, acceptance {:.2}%, avg healthy {:.2}; on-CPU time at the reference speed, median {day_s:.4} s over {} reproductions (run_day {run_s:.4} s, bound {offline_ms:.1} ms, report {report_ms:.1} ms)",
        rows.coverage * 100.0,
        rows.used * 100.0,
        rows.acceptance * 100.0,
        rows.healthy_avg,
        times.len(),
    ));
    let sim_lat = &mut rep.latency_success_secs;
    if !sim_lat.is_empty() {
        o.notes.push(format!(
            "{tag} day: simulated response time of successes p50 {:.0} ms, p99 {:.0} ms (n={})",
            sim_lat.quantile(0.5) * 1e3,
            sim_lat.quantile(0.99) * 1e3,
            sim_lat.len()
        ));
    }
    let w = &rep.whisk_counters;
    let c = &rep.cluster_counters;
    let passes = (c.quick_passes + c.backfill_passes).max(1);
    let in_flight = w.submitted - (w.rejected_503 + w.success + w.failed + w.timeout);
    for (name, v) in [
        ("core.run_day_s", run_s),
        ("core.offline_ms", offline_ms),
        ("core.report_ms", report_ms),
        ("des.in_flight_at_horizon", in_flight as f64),
        ("cluster.passes.quick", c.quick_passes as f64),
        (
            "cluster.passes.quick_skipped",
            c.quick_passes_skipped as f64,
        ),
        ("cluster.passes.backfill", c.backfill_passes as f64),
        ("cluster.placements", c.pass_placements as f64),
        (
            "cluster.wheel_reprojected",
            c.wheel_nodes_reprojected as f64,
        ),
        ("cluster.pilots_started", c.pilots_started as f64),
        ("cluster.pilots_preempted", c.pilots_preempted as f64),
        ("cluster.us_per_pass", run_s * 1e6 / passes as f64),
        ("whisk.activations", w.submitted as f64),
        ("whisk.cold_starts", w.cold_starts as f64),
        (
            "whisk.warm_pct",
            100.0 * w.warm_starts as f64 / (w.warm_starts + w.cold_starts).max(1) as f64,
        ),
        ("whisk.fastlane_moves", w.moved_to_fastlane as f64),
        ("whisk.refired", w.refired as f64),
        (
            "whisk.ns_per_activation",
            run_s * 1e9 / w.submitted.max(1) as f64,
        ),
    ] {
        o.layer.set(&format!("{name}.{tag}"), v);
    }
}

/// Request and pilot books of one day.
fn check_books(day: &Day, rep: &DayReport, o: &mut Outcome) {
    let w = &rep.whisk_counters;
    let settled = w.rejected_503 + w.success + w.failed + w.timeout;
    if settled > w.submitted {
        o.failures.push(format!(
            "{} day: {settled} requests settled (503 + success + failed + timeout) but only {} submitted",
            day.tag, w.submitted
        ));
    }
    let c = &rep.cluster_counters;
    let ended = c.pilots_preempted + c.pilots_timed_out + c.pilots_node_failed;
    if ended > c.pilots_started {
        o.failures.push(format!(
            "{} day: {ended} pilots ended (preempted + timed out + node failed) but only {} started",
            day.tag, c.pilots_started
        ));
    }
}

/// The paper-seed table rows against this code base's reproduction.
fn check_rows(day: &Day, got: &Rows, o: &mut Outcome) {
    let r = &day.reference;
    let t = &ROW_TOLERANCE;
    for (what, got, want, tol) in [
        ("coverage", got.coverage, r.coverage, t.coverage),
        ("used share", got.used, r.used, t.used),
        ("acceptance", got.acceptance, r.acceptance, t.acceptance),
        ("avg healthy", got.healthy_avg, r.healthy_avg, t.healthy_avg),
    ] {
        if (got - want).abs() > tol {
            o.failures.push(format!(
                "{} day: {what} {got:.4} differs from the reproduced table's {want:.4} by more than {tol}",
                day.tag
            ));
        }
    }
}

/// Every `DayReport` counter, for comparing two runs of one day and seed.
fn fingerprint(day: &Day, rep: &DayReport) -> Vec<(String, u64)> {
    let c = &rep.cluster_counters;
    let w = &rep.whisk_counters;
    [
        ("cluster.hpc_started", c.hpc_started),
        ("cluster.hpc_completed", c.hpc_completed),
        ("cluster.pilots_started", c.pilots_started),
        ("cluster.pilots_preempted", c.pilots_preempted),
        ("cluster.pilots_timed_out", c.pilots_timed_out),
        ("cluster.pilots_node_failed", c.pilots_node_failed),
        ("cluster.quick_passes", c.quick_passes),
        ("cluster.quick_passes_skipped", c.quick_passes_skipped),
        ("cluster.backfill_passes", c.backfill_passes),
        ("cluster.reservations_made", c.reservations_made),
        ("cluster.wheel_nodes_reprojected", c.wheel_nodes_reprojected),
        ("cluster.pass_placements", c.pass_placements),
        ("whisk.submitted", w.submitted),
        ("whisk.rejected_503", w.rejected_503),
        ("whisk.success", w.success),
        ("whisk.failed", w.failed),
        ("whisk.timeout", w.timeout),
        ("whisk.refired", w.refired),
        ("whisk.moved_to_fastlane", w.moved_to_fastlane),
        ("whisk.warm_starts", w.warm_starts),
        ("whisk.cold_starts", w.cold_starts),
        ("whisk.drains_clean", w.drains_clean),
        ("whisk.hard_deaths", w.hard_deaths),
        ("whisk.recovered_after_death", w.recovered_after_death),
        ("whisk.dropped_after_death", w.dropped_after_death),
    ]
    .into_iter()
    .map(|(k, v)| (format!("{}.{k}", day.tag), v))
    .collect()
}
