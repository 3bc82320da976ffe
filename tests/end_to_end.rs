//! Cross-crate integration: the full HPC-Whisk stack (workload → cluster
//! → whisk → coverage accounting) through the public facade, asserting
//! the paper's qualitative findings on scaled-down days.

use hpc_whisk::cluster::AvailabilityTrace;
use hpc_whisk::core::{lengths, run_day, DayConfig, ManagerKind};
use hpc_whisk::simcore::{SimDuration, SimTime};
use hpc_whisk::workload::{ConstantRateLoadGen, IdleModel};

fn small_day() -> AvailabilityTrace {
    let mut m = IdleModel::prometheus_week();
    m.n_nodes = 120;
    m.target_avg_idle = 4.0;
    m.generate(SimDuration::from_hours(4), 17)
}

#[test]
fn fib_converts_most_of_the_idle_surface() {
    let trace = small_day();
    let mut cfg = DayConfig::fib_paper(1);
    cfg.load = None;
    let mut rep = run_day(&trace, cfg);
    let slurm = rep.slurm_level();
    // A1 of the paper: fib turns ~90% of the surface into pilots.
    assert!(
        slurm.used_share > 0.75,
        "fib coverage too low: {:.3}",
        slurm.used_share
    );
    // The clairvoyant bound is in the same band and not wildly exceeded.
    let sim = rep.simulation(lengths::A1.to_vec());
    assert!(sim.coverage() > 0.7);
    assert!(slurm.used_share <= sim.coverage() + 0.1);
    // Healthy workers cover most of the pilot surface (paper: >95%).
    let ow = rep.ow_level();
    assert!(
        ow.healthy.3 > 0.80 * slurm.pilot_avg,
        "healthy {:.2} vs pilots {:.2}",
        ow.healthy.3,
        slurm.pilot_avg
    );
}

#[test]
fn var_covers_less_than_fib_on_the_same_day() {
    let trace = small_day();
    let mut fib_cfg = DayConfig::fib_paper(2);
    fib_cfg.load = None;
    let mut var_cfg = DayConfig::var_paper(2);
    var_cfg.load = None;
    let fib = run_day(&trace, fib_cfg);
    let var = run_day(&trace, var_cfg);
    let f = fib.slurm_level().used_share;
    let v = var.slurm_level().used_share;
    assert!(
        v < f,
        "paper's headline ordering must hold: var {v:.3} vs fib {f:.3}"
    );
}

#[test]
fn pilots_never_significantly_delay_prime_demand() {
    let trace = small_day();
    let mut cfg = DayConfig::fib_paper(3);
    cfg.load = None;
    let rep = run_day(&trace, cfg);
    let d = &rep.cluster_counters.demand_delay_secs;
    assert!(d.count() > 50, "claims ran: {}", d.count());
    // §III-D: at most the grace period (3 min), plus scheduling latency.
    assert!(
        d.max().unwrap() <= 180.0 + 15.0,
        "a prime job was delayed {:.1}s",
        d.max().unwrap()
    );
    // Typically the drain finishes in seconds.
    assert!(d.mean() < 20.0, "mean delay {:.1}s", d.mean());
}

#[test]
fn faas_requests_served_with_bounded_latency() {
    let trace = small_day();
    let mut cfg = DayConfig::fib_paper(4);
    cfg.load = Some(ConstantRateLoadGen {
        qps: 2.0,
        n_functions: 25,
    });
    let report = run_day(&trace, cfg);
    let c = &report.whisk_counters;
    assert!(c.submitted >= 28_000);
    let (succ, _, _) = report.accepted_outcome_shares();
    assert!(succ > 0.9, "success of accepted = {succ:.3}");
    let mut lat = report.latency_success_secs;
    assert!(!lat.is_empty());
    let med = lat.median();
    // The paper's ~0.8-1.2 s ballpark for warm sleep functions.
    assert!((0.5..=2.0).contains(&med), "median latency {med:.3}s");
    // Conservation: nothing unaccounted beyond in-flight tail.
    let answered = c.success + c.failed + c.timeout + c.rejected_503;
    assert!(c.submitted - answered < 50);
}

#[test]
fn uniform_priority_ablation_changes_job_mix() {
    let trace = small_day();
    let mut a = DayConfig::fib_paper(5);
    a.load = None;
    let mut b = a.clone();
    b.manager = ManagerKind::FibUniform(lengths::A1.to_vec());
    let ra = run_day(&trace, a);
    let rb = run_day(&trace, b);
    // Both run; the longest-first variant needs no more pilots than the
    // uniform one for its coverage (greedy packs long gaps with long
    // jobs).
    assert!(ra.cluster_counters.pilots_started > 0);
    assert!(rb.cluster_counters.pilots_started > 0);
    assert!(
        ra.cluster_counters.pilots_started <= rb.cluster_counters.pilots_started + 10,
        "longest-first {} vs uniform {}",
        ra.cluster_counters.pilots_started,
        rb.cluster_counters.pilots_started
    );
}

#[test]
fn reports_are_deterministic_per_seed() {
    let trace = small_day();
    let mk = |seed| {
        let mut cfg = DayConfig::fib_paper(seed);
        cfg.load = Some(ConstantRateLoadGen {
            qps: 1.0,
            n_functions: 5,
        });
        run_day(&trace, cfg)
    };
    let a = mk(9);
    let b = mk(9);
    let c = mk(10);
    assert_eq!(a.whisk_counters.success, b.whisk_counters.success);
    assert_eq!(
        a.cluster_counters.pilots_started,
        b.cluster_counters.pilots_started
    );
    // Different seed → different realization (warm-ups, jitters).
    assert!(
        a.whisk_counters.success != c.whisk_counters.success
            || a.cluster_counters.pilots_started != c.cluster_counters.pilots_started
    );
}

#[test]
fn drain_heavy_day_reports_are_identical_within_one_process() {
    // Two runs of one seed must agree on every report field, not just a
    // couple of counters. Pilot preemptions drain invokers while
    // interruptible activations run; the drain re-fires them through
    // the fast lane, and that order must not depend on a per-process
    // hash seed (each `HashSet` draws fresh keys, even in one process).
    let trace = small_day();
    let run = || {
        let mut cfg = DayConfig::fib_paper(3);
        cfg.load = Some(ConstantRateLoadGen {
            qps: 4.0,
            n_functions: 25,
        });
        run_day(&trace, cfg)
    };
    let a = run();
    assert!(
        a.whisk_counters.refired > 0,
        "the day must re-fire interrupted activations"
    );
    let b = run();
    assert!(
        format!("{a:?}") == format!("{b:?}"),
        "reports differ; counters:\n{:?}\n{:?}",
        a.whisk_counters,
        b.whisk_counters
    );
}

#[test]
fn poll_reconstruction_roundtrips_through_facade() {
    let trace = small_day();
    let mut cfg = DayConfig::fib_paper(11);
    cfg.load = None;
    let rep = run_day(&trace, cfg);
    let measured = AvailabilityTrace::from_poll_samples(&rep.samples, rep.n_nodes, true);
    // The measured availability roughly matches the generating trace.
    let gen_mins = trace.total_available().as_mins_f64();
    let meas_mins = measured.total_available().as_mins_f64();
    let ratio = meas_mins / gen_mins;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "measured/generated availability = {ratio:.3}"
    );
    let _ = SimTime::ZERO;
}
