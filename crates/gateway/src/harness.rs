//! The closed-loop load harness: replays a `workload` arrival stream
//! (Poisson, diurnal, or the paper's constant-rate process) against a
//! live [`Gateway`](crate::Gateway) and folds per-request latencies
//! into fixed-footprint log-linear histograms.
//!
//! The loop is *closed* through an in-flight window: arrivals are
//! released on their (scaled) schedule, but never more than
//! `max_inflight` may be outstanding — completions open the window
//! again, so an overloaded plane back-pressures the client instead of
//! queueing unboundedly inside the harness. With `speedup == 0` the
//! schedule collapses and the harness drives the plane flat out (the
//! throughput-probe mode).
//!
//! When the gateway records telemetry (the default), the report is
//! built **from** two [`Registry`](telemetry::Registry) snapshots — one
//! at the start, one at the end of the replay — so the harness numbers
//! and the Prometheus exposition can never disagree; the loop itself
//! does no per-request accounting at all. With telemetry off the
//! harness falls back to counting locally (and records latencies into
//! its own histograms), preserving the bare-plane probe.

use crate::action::ActionId;
use crate::controller::{CapacityController, LeaseStats};
use crate::gateway::{BurstScratch, Gateway, Shed};
use crate::route::mix64;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use telemetry::{HistSnapshot, Histogram, Snapshot};
use workload::Arrival;

/// How to replay an arrival stream.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Schedule compression: 1.0 replays in real time, 10.0 ten times
    /// faster, 0.0 ignores the schedule entirely (flat-out mode).
    pub speedup: f64,
    /// Closed-loop window: max requests outstanding at once.
    pub max_inflight: usize,
    /// Safety valve: stop waiting for completions after this much wall
    /// time with no progress (only trips if the plane lost requests or
    /// has no invokers left — a healthy run never hits it).
    pub stall_timeout: Duration,
    /// Submitter-side batching: up to this many due arrivals are
    /// admitted per burst with **one** clock read shared as their
    /// admission timestamp. 1 submits each arrival as a burst of one.
    pub submit_batch: usize,
    /// Parallel submitter threads. 1 (the default) runs the
    /// single-threaded loop on the calling thread. N > 1 partitions the
    /// arrival stream **by action hash** across N scoped threads — all
    /// invocations of one action go through one submitter, so per-action
    /// ordering and per-action row sums match the single-threaded
    /// replay exactly. Each submitter owns its own [`BurstScratch`],
    /// clock reads and [`Collector`](crate::gateway::Collector) cursor,
    /// and doubles as a completion collector; per-thread reports are
    /// merged at the end (or, with telemetry on, the whole run is read
    /// from one registry-snapshot diff). The closed-loop window is a
    /// shared atomic; concurrent submitters may transiently overshoot
    /// it by at most `submitters * submit_batch`.
    pub submitters: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            speedup: 1.0,
            max_inflight: 512,
            stall_timeout: Duration::from_secs(10),
            submit_batch: 64,
            submitters: 1,
        }
    }
}

/// Per-action tallies of one run: the admitted / delayed / shed / lost
/// split, per shed reason, so a scenario's outcome is diagnosable at a
/// glance (which action saturated its cap, which one ate the delay
/// budget, which one lost work).
#[derive(Debug, Clone, Default)]
pub struct ActionLoad {
    /// Action name (from the gateway's registry).
    pub name: String,
    /// Arrivals submitted for this action.
    pub submitted: u64,
    /// Requests admitted.
    pub accepted: u64,
    /// Admissions the shaper charged a nonzero delay (subset of
    /// `accepted`).
    pub delayed: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completions that cold-started a container.
    pub cold_starts: u64,
    /// Sheds: home queue at its bound.
    pub shed_queue_full: u64,
    /// Sheds: per-action in-flight cap.
    pub shed_action_saturated: u64,
    /// Sheds: no routable invoker.
    pub shed_no_invoker: u64,
    /// Sheds: token-bucket delay budget exhausted.
    pub shed_delay_budget: u64,
}

impl ActionLoad {
    /// Total sheds across all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full
            + self.shed_action_saturated
            + self.shed_no_invoker
            + self.shed_delay_budget
    }

    /// Accepted requests that never completed.
    pub fn lost(&self) -> u64 {
        self.accepted - self.completed
    }

    fn note_shed(&mut self, reason: Shed) {
        match reason {
            Shed::QueueFull => self.shed_queue_full += 1,
            Shed::ActionSaturated => self.shed_action_saturated += 1,
            Shed::NoInvoker => self.shed_no_invoker += 1,
            Shed::DelayBudget => self.shed_delay_budget += 1,
        }
    }
}

/// Everything the run observed.
pub struct LoadReport {
    /// Wall-clock span of the run.
    pub wall: Duration,
    /// Arrivals attempted (accepted + shed).
    pub submitted: u64,
    /// Requests admitted by the gateway.
    pub accepted: u64,
    /// Admissions charged a nonzero shaper delay (subset of accepted).
    pub delayed: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Completions that cold-started a container.
    pub cold_starts: u64,
    /// Completed requests per second of wall time.
    pub throughput: f64,
    /// End-to-end latency (admission → completion), **nanoseconds** —
    /// a mergeable log-linear histogram snapshot, not raw samples.
    pub latency: HistSnapshot,
    /// Queue-wait share of the latency, nanoseconds.
    pub queue_wait: HistSnapshot,
    /// The same tallies broken out per action, index-aligned with the
    /// gateway's action registry.
    pub per_action: Vec<ActionLoad>,
}

impl LoadReport {
    /// Accepted requests that never completed. Zero on every healthy
    /// run — the drain protocol's whole point.
    pub fn lost(&self) -> u64 {
        self.accepted - self.completed
    }

    /// Latency quantile in seconds (p in [0, 1]). `NaN` when nothing
    /// completed (the empty-histogram guard lives in
    /// [`HistSnapshot::quantile`] itself, so every quantile consumer
    /// shares it). Kept `&mut self` for drop-in compatibility with the
    /// old sample-sorting CDF.
    pub fn latency_quantile(&mut self, p: f64) -> f64 {
        self.latency.quantile(p) / 1e9
    }

    /// Human summary: one totals line, then one line per action that
    /// saw traffic, breaking out ok / delayed / shed (by reason) /
    /// lost.
    pub fn summary(&mut self) -> String {
        let (p50, p99) = (
            self.latency.quantile(0.5) / 1e9,
            self.latency.quantile(0.99) / 1e9,
        );
        let mut s = format!(
            "{} completed / {} accepted ({} delayed) / {} shed in {:.2?}  |  {:.0} ops/s  |  p50 {:.1} µs  p99 {:.1} µs  |  {} cold  |  lost {}",
            self.completed,
            self.accepted,
            self.delayed,
            self.shed,
            self.wall,
            self.throughput,
            p50 * 1e6,
            p99 * 1e6,
            self.cold_starts,
            self.lost()
        );
        for a in self.per_action.iter().filter(|a| a.submitted > 0) {
            s.push_str(&format!(
                "\n  {}: {}/{} ok, {} delayed, {} shed ({} queue, {} cap, {} route, {} budget), {} lost",
                a.name,
                a.completed,
                a.submitted,
                a.delayed,
                a.shed(),
                a.shed_queue_full,
                a.shed_action_saturated,
                a.shed_no_invoker,
                a.shed_delay_budget,
                a.lost()
            ));
        }
        s
    }
}

/// Replay `arrivals` against `gw`, mapping each arrival's function
/// index onto the gateway's action catalogue modulo its size. With
/// [`HarnessConfig::submitters`] > 1 the stream is partitioned by
/// action hash across that many scoped submitter threads.
pub fn run_load(gw: &Gateway, arrivals: &[Arrival], cfg: &HarnessConfig) -> LoadReport {
    if cfg.submitters > 1 {
        run_load_multi(gw, arrivals, cfg)
    } else {
        run_load_single(gw, arrivals, cfg)
    }
}

/// A zeroed report with the per-action rows named from the catalogue.
fn empty_report(gw: &Gateway, n_actions: u32) -> LoadReport {
    LoadReport {
        wall: Duration::ZERO,
        submitted: 0,
        accepted: 0,
        delayed: 0,
        shed: 0,
        completed: 0,
        cold_starts: 0,
        throughput: 0.0,
        latency: HistSnapshot::default(),
        queue_wait: HistSnapshot::default(),
        per_action: (0..n_actions)
            .map(|i| ActionLoad {
                name: gw.actions().spec(ActionId(i)).name.clone(),
                ..Default::default()
            })
            .collect(),
    }
}

/// The single-threaded submit/collect loop on the calling thread.
fn run_load_single(gw: &Gateway, arrivals: &[Arrival], cfg: &HarnessConfig) -> LoadReport {
    let n_actions = gw.actions().len() as u32;
    // Registry mode: a start-of-run snapshot; every tally comes from
    // the end-of-run diff against it. Legacy mode (telemetry off):
    // count in the loop and record into local histograms.
    let s0 = gw.telemetry().map(|t| t.registry().snapshot());
    let registry_mode = s0.is_some();
    let local_hists = (!registry_mode).then(|| (Histogram::new(), Histogram::new()));
    let t0 = Instant::now();
    let mut report = empty_report(gw, n_actions);
    let submit_batch = cfg.submit_batch.max(1);
    let mut inflight = 0usize;
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    let mut col = gw.collector();
    let mut buf: Vec<crate::gateway::Completion> = Vec::with_capacity(submit_batch.max(64));
    let mut burst_reqs: Vec<(ActionId, u64)> = Vec::with_capacity(submit_batch);
    let mut burst_out: Vec<Result<crate::gateway::Admit, Shed>> = Vec::with_capacity(submit_batch);
    // Caller-held bucket scratch: the per-target burst buckets allocate
    // once per harness run, not once per burst.
    let mut scratch = BurstScratch::default();

    loop {
        // Fold in everything already completed — what the previous
        // turn's blocking wait caught plus one non-blocking round-robin
        // sweep over the per-invoker completion shards. A completion
        // with no submission of ours outstanding is a stray from
        // traffic that predates this run (the caller invoked the
        // gateway directly and did not collect its completions); it is
        // discarded rather than corrupting this run's accounting.
        gw.collect_completions_with(&mut col, &mut buf);
        let collected = buf.len();
        if collected > 0 {
            for c in &buf {
                if inflight > 0 {
                    if let Some((lat, wait)) = &local_hists {
                        record(&mut report, c, lat, wait);
                    }
                    inflight -= 1;
                }
            }
            buf.clear();
            last_progress = Instant::now();
        }
        if next < arrivals.len() {
            let window = cfg.max_inflight.saturating_sub(inflight);
            if window > 0 {
                // One clock read decides how many arrivals are due and
                // serves as the shared admission timestamp of the
                // whole burst.
                let now = Instant::now();
                let due = if cfg.speedup <= 0.0 {
                    arrivals.len() - next
                } else {
                    let sim_now = now.duration_since(t0).as_secs_f64() * cfg.speedup;
                    arrivals[next..].partition_point(|a| a.at.as_secs_f64() <= sim_now)
                };
                let burst = due.min(window).min(submit_batch);
                if burst > 0 {
                    burst_reqs.clear();
                    burst_out.clear();
                    for a in &arrivals[next..next + burst] {
                        let action = ActionId(a.function as u32 % n_actions);
                        burst_reqs.push((action, a.function as u64));
                    }
                    gw.invoke_burst(&burst_reqs, now, &mut burst_out, &mut scratch);
                    if registry_mode {
                        inflight += burst_out.iter().filter(|o| o.is_ok()).count();
                    } else {
                        for (outcome, &(action, _)) in burst_out.iter().zip(&burst_reqs) {
                            inflight += note_submission(&mut report, action, outcome);
                        }
                    }
                    next += burst;
                    continue;
                }
            }
        } else if inflight == 0 {
            break;
        }
        // Nothing submittable right now: wait for completions (bounded,
        // so schedule gaps and stalls both make progress).
        if inflight > 0 {
            if collected == 0 {
                if last_progress.elapsed() > cfg.stall_timeout {
                    break; // lost requests; report.lost() will be nonzero
                }
                // Park on the completion gate instead of poll-sleeping:
                // an invoker flush wakes us the moment work lands (the
                // next turn folds it in), and the cap (shrunk to the
                // next due arrival) keeps the schedule honest when
                // completions are slow.
                let mut park = Duration::from_millis(1);
                if next < arrivals.len() && cfg.speedup > 0.0 {
                    let due_in =
                        arrivals[next].at.as_secs_f64() / cfg.speedup - t0.elapsed().as_secs_f64();
                    if due_in > 0.0 {
                        park = park.min(Duration::from_secs_f64(due_in));
                    }
                }
                gw.collect_wait(&mut col, &mut buf, park);
            }
        } else {
            // Ahead of the schedule (speedup > 0 here, or we'd have
            // submitted): sleep until the next arrival is due, capped
            // so a late completion cannot stall the loop. Sleeping
            // instead of spinning keeps the driver off the invokers'
            // cores on small machines.
            let due_in = arrivals[next].at.as_secs_f64() / cfg.speedup - t0.elapsed().as_secs_f64();
            if due_in > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(due_in.min(0.001)));
            }
        }
    }
    report.wall = t0.elapsed();
    if let Some(s0) = &s0 {
        let s1 = gw
            .telemetry()
            .expect("telemetry still on")
            .registry()
            .snapshot();
        fill_from_registry(&mut report, s0, &s1);
    } else if let Some((lat, wait)) = &local_hists {
        report.latency = lat.snapshot();
        report.queue_wait = wait.snapshot();
    }
    report.throughput = report.completed as f64 / report.wall.as_secs_f64().max(1e-9);
    report
}

/// Run-wide state shared by every submitter thread of a multi-submitter
/// replay. The closed-loop window lives in `inflight`; `submitting`
/// counts partitions still replaying so the last collector knows when
/// the run is over; `progress_ns` is a watermark of the latest wall
/// offset at which *any* thread made progress (stall detection must be
/// global — one thread idling while another drains is healthy).
struct MultiShared {
    inflight: AtomicUsize,
    submitting: AtomicUsize,
    stop: AtomicBool,
    progress_ns: AtomicU64,
}

/// Decrement `n` by `by`, clamping at zero — stray completions from
/// traffic predating the run must not underflow the shared window.
fn dec_clamped(n: &AtomicUsize, by: usize) {
    let mut cur = n.load(Ordering::Relaxed);
    loop {
        match n.compare_exchange_weak(
            cur,
            cur.saturating_sub(by),
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Fold a per-thread report into the run total: plain sums everywhere,
/// bucket-wise merges for the histograms.
fn merge_report(into: &mut LoadReport, part: &LoadReport) {
    into.submitted += part.submitted;
    into.accepted += part.accepted;
    into.delayed += part.delayed;
    into.shed += part.shed;
    into.completed += part.completed;
    into.cold_starts += part.cold_starts;
    into.latency.merge(&part.latency);
    into.queue_wait.merge(&part.queue_wait);
    for (a, b) in into.per_action.iter_mut().zip(&part.per_action) {
        a.submitted += b.submitted;
        a.accepted += b.accepted;
        a.delayed += b.delayed;
        a.completed += b.completed;
        a.cold_starts += b.cold_starts;
        a.shed_queue_full += b.shed_queue_full;
        a.shed_action_saturated += b.shed_action_saturated;
        a.shed_no_invoker += b.shed_no_invoker;
        a.shed_delay_budget += b.shed_delay_budget;
    }
}

/// Multi-submitter replay: the arrival stream is partitioned **by
/// action hash** across `cfg.submitters` scoped threads, each running
/// the same submit/collect loop as [`run_load_single`] against the
/// shared window. Any submitter may collect any completion (the shard
/// table is claim-swept), so per-thread completion rows are partial —
/// they only become the run's truth after [`merge_report`] (bare mode)
/// or the registry-snapshot diff (telemetry mode).
fn run_load_multi(gw: &Gateway, arrivals: &[Arrival], cfg: &HarnessConfig) -> LoadReport {
    let n_actions = gw.actions().len() as u32;
    let n_sub = cfg.submitters;
    let s0 = gw.telemetry().map(|t| t.registry().snapshot());
    let registry_mode = s0.is_some();
    // All invocations of one action go through one submitter: per-action
    // submission order and row sums match the single-threaded replay.
    let mut parts: Vec<Vec<Arrival>> = vec![Vec::new(); n_sub];
    for a in arrivals {
        let action = a.function as u32 % n_actions;
        parts[(mix64(action as u64 + 1) % n_sub as u64) as usize].push(*a);
    }
    let shared = MultiShared {
        inflight: AtomicUsize::new(0),
        submitting: AtomicUsize::new(n_sub),
        stop: AtomicBool::new(false),
        progress_ns: AtomicU64::new(0),
    };
    let t0 = Instant::now();
    let thread_reports: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(idx, part)| {
                let shared = &shared;
                scope.spawn(move || {
                    // Admission-shard affinity == submitter index: each
                    // submitter sticks to one bucket shard, so the only
                    // cross-thread shaper traffic is debt rebalancing.
                    gw.bind_submitter(idx);
                    submitter_loop(gw, part, cfg, shared, t0, n_actions, registry_mode)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    let mut report = empty_report(gw, n_actions);
    report.wall = t0.elapsed();
    if let Some(s0) = &s0 {
        let s1 = gw
            .telemetry()
            .expect("telemetry still on")
            .registry()
            .snapshot();
        fill_from_registry(&mut report, s0, &s1);
    } else {
        for part in &thread_reports {
            merge_report(&mut report, part);
        }
    }
    report.throughput = report.completed as f64 / report.wall.as_secs_f64().max(1e-9);
    report
}

/// One submitter thread's loop: its own [`Collector`] cursor,
/// [`BurstScratch`], clock reads and (bare mode) histograms, sharing
/// only the atomic window and the stop/progress flags.
///
/// [`Collector`]: crate::gateway::Collector
fn submitter_loop(
    gw: &Gateway,
    part: &[Arrival],
    cfg: &HarnessConfig,
    shared: &MultiShared,
    t0: Instant,
    n_actions: u32,
    registry_mode: bool,
) -> LoadReport {
    let mut report = empty_report(gw, n_actions);
    let local_hists = (!registry_mode).then(|| (Histogram::new(), Histogram::new()));
    let mut col = gw.collector();
    let submit_batch = cfg.submit_batch.max(1);
    let mut next = 0usize;
    let mut announced_done = false;
    let mut buf: Vec<crate::gateway::Completion> = Vec::with_capacity(submit_batch.max(64));
    let mut burst_reqs: Vec<(ActionId, u64)> = Vec::with_capacity(submit_batch);
    let mut burst_out: Vec<Result<crate::gateway::Admit, Shed>> = Vec::with_capacity(submit_batch);
    let mut scratch = BurstScratch::default();
    loop {
        // What the previous turn's blocking wait caught, plus one
        // non-blocking sweep.
        gw.collect_completions_with(&mut col, &mut buf);
        let collected = buf.len();
        if collected > 0 {
            if let Some((lat, wait)) = &local_hists {
                for c in &buf {
                    record(&mut report, c, lat, wait);
                }
            }
            buf.clear();
            dec_clamped(&shared.inflight, collected);
            shared
                .progress_ns
                .fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if next < part.len() {
            let window = cfg
                .max_inflight
                .saturating_sub(shared.inflight.load(Ordering::Acquire));
            if window > 0 {
                let now = Instant::now();
                let due = if cfg.speedup <= 0.0 {
                    part.len() - next
                } else {
                    let sim_now = now.duration_since(t0).as_secs_f64() * cfg.speedup;
                    part[next..].partition_point(|a| a.at.as_secs_f64() <= sim_now)
                };
                let burst = due.min(window).min(submit_batch);
                if burst > 0 {
                    burst_reqs.clear();
                    burst_out.clear();
                    for a in &part[next..next + burst] {
                        let action = ActionId(a.function as u32 % n_actions);
                        burst_reqs.push((action, a.function as u64));
                    }
                    // Charge the window for the whole burst *before*
                    // submitting: an invoker can execute a request and a
                    // sibling collector decrement it before this thread
                    // even returns from `invoke_burst` — charging after
                    // the fact would leak those early decrements (they
                    // clamp at zero) and jam the window shut. Sheds are
                    // refunded below; they never complete.
                    shared.inflight.fetch_add(burst, Ordering::AcqRel);
                    gw.invoke_burst(&burst_reqs, now, &mut burst_out, &mut scratch);
                    let ok = if registry_mode {
                        burst_out.iter().filter(|o| o.is_ok()).count()
                    } else {
                        let mut ok = 0;
                        for (outcome, &(action, _)) in burst_out.iter().zip(&burst_reqs) {
                            ok += note_submission(&mut report, action, outcome);
                        }
                        ok
                    };
                    if ok < burst {
                        dec_clamped(&shared.inflight, burst - ok);
                    }
                    next += burst;
                    shared
                        .progress_ns
                        .fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    continue;
                }
            }
        } else {
            if !announced_done {
                announced_done = true;
                shared.submitting.fetch_sub(1, Ordering::AcqRel);
            }
            if shared.inflight.load(Ordering::Acquire) == 0
                && shared.submitting.load(Ordering::Acquire) == 0
            {
                break;
            }
        }
        if collected == 0 {
            // Global stall check: any thread's progress resets the
            // clock for all of them.
            let idle = t0
                .elapsed()
                .as_nanos()
                .saturating_sub(shared.progress_ns.load(Ordering::Relaxed) as u128);
            if idle > cfg.stall_timeout.as_nanos() {
                shared.stop.store(true, Ordering::Release);
                break;
            }
            let mut park = Duration::from_millis(1);
            if next < part.len() && cfg.speedup > 0.0 {
                let due_in = part[next].at.as_secs_f64() / cfg.speedup - t0.elapsed().as_secs_f64();
                if due_in > 0.0 {
                    park = park.min(Duration::from_secs_f64(due_in));
                }
            }
            gw.collect_wait(&mut col, &mut buf, park);
        }
    }
    if let Some((lat, wait)) = &local_hists {
        report.latency = lat.snapshot();
        report.queue_wait = wait.snapshot();
    }
    report
}

/// Fill every tally of `report` from the diff of two registry
/// snapshots bracketing the run. Uses absolute counter diffs (not the
/// scrape-to-scrape `counter_delta`) so an interleaved scrape by
/// another observer — a metrics exporter running mid-load — cannot
/// steal this run's counts.
fn fill_from_registry(report: &mut LoadReport, s0: &Snapshot, s1: &Snapshot) {
    const FAM: &str = "gateway_requests_total";
    let diff = |action: &str, outcome: &str| -> u64 {
        let lbls = [("action", action), ("outcome", outcome)];
        s1.counter(FAM, &lbls)
            .unwrap_or(0)
            .saturating_sub(s0.counter(FAM, &lbls).unwrap_or(0))
    };
    (report.submitted, report.accepted, report.delayed) = (0, 0, 0);
    (report.shed, report.completed, report.cold_starts) = (0, 0, 0);
    for row in report.per_action.iter_mut() {
        let name = row.name.clone();
        row.accepted = diff(&name, "accepted");
        row.delayed = diff(&name, "delayed");
        row.shed_queue_full = diff(&name, "shed_queue_full");
        row.shed_action_saturated = diff(&name, "shed_action_saturated");
        row.shed_no_invoker = diff(&name, "shed_no_invoker");
        row.shed_delay_budget = diff(&name, "shed_delay_budget");
        row.completed = diff(&name, "completed");
        row.cold_starts = diff(&name, "cold");
        row.submitted = row.accepted + row.shed();
        report.submitted += row.submitted;
        report.accepted += row.accepted;
        report.delayed += row.delayed;
        report.shed += row.shed();
        report.completed += row.completed;
        report.cold_starts += row.cold_starts;
    }
    let hist = |s: &Snapshot, kind: &str| -> HistSnapshot {
        s.histogram("gateway_latency_ns", &[("kind", kind)])
            .cloned()
            .unwrap_or_default()
    };
    report.latency = hist(s1, "total").since(&hist(s0, "total"));
    report.queue_wait = hist(s1, "queue_wait").since(&hist(s0, "queue_wait"));
}

/// Drive `arrivals` through `gw` while `ctl` replays its lease plan on
/// a scoped background thread — the canonical pairing of the load
/// harness with a [`CapacityController`]. Plan events already due at
/// call time (the epoch grants) are applied *before* the first arrival,
/// so bring-up never races traffic; once the replay completes the
/// controller is stopped and its remaining leases reaped. Returns the
/// load report together with the controller's final stats.
pub fn run_load_with_controller(
    gw: &Gateway,
    mut ctl: CapacityController<'_>,
    arrivals: &[Arrival],
    cfg: &HarnessConfig,
) -> (LoadReport, LeaseStats) {
    ctl.poll(Instant::now());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let handle = s.spawn(move || {
            ctl.run(stop);
            ctl.finish()
        });
        let report = run_load(gw, arrivals, cfg);
        stop.store(true, Ordering::Release);
        (report, handle.join().expect("capacity controller thread"))
    })
}

/// Fold one submission outcome into the totals and its action's row;
/// returns 1 when it joined the in-flight window.
fn note_submission(
    report: &mut LoadReport,
    action: ActionId,
    outcome: &Result<crate::gateway::Admit, Shed>,
) -> usize {
    report.submitted += 1;
    let row = &mut report.per_action[action.0 as usize];
    row.submitted += 1;
    match outcome {
        Ok(admit) => {
            report.accepted += 1;
            row.accepted += 1;
            if admit.delayed() {
                report.delayed += 1;
                row.delayed += 1;
            }
            1
        }
        Err(reason) => {
            report.shed += 1;
            row.note_shed(*reason);
            0
        }
    }
}

fn record(
    report: &mut LoadReport,
    c: &crate::gateway::Completion,
    lat: &Histogram,
    wait: &Histogram,
) {
    report.completed += 1;
    let row = &mut report.per_action[c.action.0 as usize];
    row.completed += 1;
    if c.cold {
        report.cold_starts += 1;
        row.cold_starts += 1;
    }
    lat.record_owned(c.total.as_nanos() as u64);
    wait.record_owned(c.queue_wait.as_nanos() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionSpec;
    use crate::gateway::GatewayConfig;
    use simcore::SimDuration;
    use workload::{DiurnalLoadGen, PoissonLoadGen};

    fn plane(n_invokers: usize, n_actions: usize) -> Gateway {
        let gw = Gateway::new(
            GatewayConfig::default(),
            (0..n_actions)
                .map(|i| ActionSpec::noop(&format!("fn-{i}")))
                .collect(),
        );
        for _ in 0..n_invokers {
            gw.start_invoker();
        }
        gw
    }

    #[test]
    fn poisson_replay_is_lossless() {
        let gw = plane(2, 8);
        let arrivals = PoissonLoadGen::new(4_000.0, 8).arrivals(SimDuration::from_millis(250), 3);
        assert!(!arrivals.is_empty());
        let mut r = run_load(&gw, &arrivals, &HarnessConfig::default());
        assert_eq!(r.lost(), 0, "{}", r.summary());
        assert_eq!(r.submitted, arrivals.len() as u64);
        assert!(r.throughput > 0.0);
        assert!(r.latency_quantile(0.5) >= 0.0);
        assert_eq!(gw.shutdown(), 0);
    }

    #[test]
    fn diurnal_replay_is_lossless() {
        let gw = plane(2, 4);
        let arrivals = DiurnalLoadGen::new(500.0, 8_000.0, SimDuration::from_millis(200), 4)
            .arrivals(SimDuration::from_millis(200), 5);
        let mut r = run_load(
            &gw,
            &arrivals,
            &HarnessConfig {
                speedup: 2.0,
                ..Default::default()
            },
        );
        assert_eq!(r.lost(), 0, "{}", r.summary());
        assert!(r.completed > 0);
    }

    #[test]
    fn flat_out_mode_ignores_schedule() {
        let gw = plane(2, 2);
        // Arrivals spread over a simulated hour: flat-out mode must not
        // take an hour.
        let arrivals = PoissonLoadGen::new(2.0, 2).arrivals(SimDuration::from_hours(1), 9);
        let t = Instant::now();
        let r = run_load(
            &gw,
            &arrivals,
            &HarnessConfig {
                speedup: 0.0,
                ..Default::default()
            },
        );
        assert!(t.elapsed() < Duration::from_secs(5));
        assert_eq!(r.lost(), 0);
        assert_eq!(r.completed, arrivals.len() as u64);
    }

    #[test]
    fn empty_run_reports_nan_quantiles() {
        // Regression: latency_quantile on a run with no completions is
        // NaN (the guard lives in Cdf::quantile), not a panic.
        let gw = plane(1, 1);
        let mut r = run_load(&gw, &[], &HarnessConfig::default());
        assert_eq!(r.completed, 0);
        assert!(r.latency_quantile(0.5).is_nan());
        assert!(r.latency_quantile(0.99).is_nan());
        assert!(r.summary().contains("NaN"), "{}", r.summary());
        assert_eq!(gw.shutdown(), 0);
    }

    #[test]
    fn submit_batch_one_matches_per_arrival_submission() {
        // Batch size 1 submits every arrival as a burst of one; a run
        // with it stays lossless and accounts every arrival.
        let gw = plane(2, 4);
        let arrivals = PoissonLoadGen::new(3_000.0, 4).arrivals(SimDuration::from_millis(100), 11);
        let mut r = run_load(
            &gw,
            &arrivals,
            &HarnessConfig {
                speedup: 0.0,
                submit_batch: 1,
                ..Default::default()
            },
        );
        assert_eq!(r.lost(), 0, "{}", r.summary());
        assert_eq!(r.submitted, arrivals.len() as u64);
        assert_eq!(r.accepted, r.completed);
        assert_eq!(gw.shutdown(), 0);
    }

    #[test]
    fn multi_submitter_replay_is_lossless() {
        // 2 and 4 submitters over the same stream: conservation holds
        // (submitted = accepted + shed, lost == 0) and the per-action
        // rows equal the single-threaded reference exactly — the
        // action-hash partition keeps every action on one submitter.
        let arrivals = PoissonLoadGen::new(6_000.0, 8).arrivals(SimDuration::from_millis(150), 17);
        let reference = {
            let gw = plane(2, 8);
            let r = run_load(
                &gw,
                &arrivals,
                &HarnessConfig {
                    speedup: 0.0,
                    ..Default::default()
                },
            );
            gw.shutdown();
            r
        };
        for submitters in [2usize, 4] {
            let gw = plane(2, 8);
            let mut r = run_load(
                &gw,
                &arrivals,
                &HarnessConfig {
                    speedup: 0.0,
                    submitters,
                    ..Default::default()
                },
            );
            assert_eq!(r.lost(), 0, "submitters={submitters}: {}", r.summary());
            assert_eq!(r.submitted, arrivals.len() as u64);
            assert_eq!(r.submitted, r.accepted + r.shed);
            for (a, b) in r.per_action.iter().zip(&reference.per_action) {
                assert_eq!(a.submitted, b.submitted, "row {} submitted", a.name);
                assert_eq!(a.completed, b.completed, "row {} completed", a.name);
            }
            assert_eq!(gw.shutdown(), 0);
        }
    }

    #[test]
    fn multi_submitter_bare_mode_merges_thread_reports() {
        // Telemetry off: tallies come from the per-thread reports merged
        // at the end, and must still conserve every arrival.
        let gw = Gateway::new(
            GatewayConfig {
                telemetry: false,
                ..Default::default()
            },
            (0..4)
                .map(|i| ActionSpec::noop(&format!("fn-{i}")))
                .collect(),
        );
        gw.start_invoker();
        gw.start_invoker();
        let arrivals = PoissonLoadGen::new(5_000.0, 4).arrivals(SimDuration::from_millis(120), 23);
        let mut r = run_load(
            &gw,
            &arrivals,
            &HarnessConfig {
                speedup: 0.0,
                submitters: 3,
                ..Default::default()
            },
        );
        assert_eq!(r.lost(), 0, "{}", r.summary());
        assert_eq!(r.submitted, arrivals.len() as u64);
        assert_eq!(r.completed, r.accepted);
        // The merged histograms saw every completion.
        assert!(r.latency_quantile(0.5) >= 0.0);
        assert_eq!(gw.shutdown(), 0);
    }

    #[test]
    fn closed_loop_window_bounds_queueing() {
        // One slow invoker, tiny window: the harness may never have more
        // than `max_inflight` outstanding, so queue depth stays bounded
        // and nothing is shed even though the plane is saturated.
        let gw = Gateway::new(
            GatewayConfig {
                queue_capacity: 4,
                ..Default::default()
            },
            vec![ActionSpec::noop("slow")
                .with_body(crate::action::ActionBody::Spin(Duration::from_micros(200)))],
        );
        gw.start_invoker();
        let arrivals = PoissonLoadGen::new(50_000.0, 1).arrivals(SimDuration::from_millis(20), 1);
        let mut r = run_load(
            &gw,
            &arrivals,
            &HarnessConfig {
                speedup: 0.0,
                max_inflight: 4,
                ..Default::default()
            },
        );
        let summary = r.summary();
        assert_eq!(r.shed, 0, "window ≤ queue bound ⇒ no sheds: {summary}");
        assert_eq!(r.lost(), 0);
    }
}
