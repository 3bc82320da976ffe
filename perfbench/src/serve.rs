//! The serving-plane workloads: the live gateway on real threads,
//! driven through `Gateway::invoke_burst` and
//! `Gateway::collect_completions_with`, and — for `elastic_diurnal` —
//! fed capacity by `CapacityController::poll` over a `DesLeaseSource`.

use crate::openloop::{self, Due};
use crate::out::{cpu_ticks, steal_pct, Values};
use crate::stats::{median, quiet_median, Dist};
use crate::trace::Tracer;
use crate::Outcome;
use gateway::{
    ActionBody, ActionId, ActionSpec, BurstScratch, CapacityController, Collector, Completion,
    ControllerConfig, Gateway, GatewayConfig, LeaseStats,
};
use hpcwhisk_core::{DesLeaseSource, DesSourceCfg, SizerCfg};
use simcore::{SimDuration, SimRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Requests per `invoke_burst` call.
const BURST: usize = 64;

/// Fixtures built for `setup_s` (the median is reported).
const SETUP_REPEATS: usize = 21;

/// Give up on outstanding requests after this long without progress.
const STALL: Duration = Duration::from_secs(5);

/// The two fixed rates of `sleep_open` (req/s): about 35% and 70% of
/// the 5–6k req/s that 8 invokers serving 1 ms sleep bodies sustain.
const LOW_RPS: f64 = 2_000.0;
const HIGH_RPS: f64 = 4_000.0;

// ---------------------------------------------------------------- inputs

/// A Poisson stream at unit rate (mean gap one second) over `n_actions`
/// actions with random routing keys. Scaling its due times by `1/r`
/// gives the stream at rate `r`, so both rates of one seed see the same
/// arrival pattern.
fn unit_poisson(n: usize, n_actions: usize, seed: u64) -> Vec<(f64, u32, u64)> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed_0be7);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -rng.f64_open().ln();
            (t, rng.index(n_actions) as u32, rng.next_u64())
        })
        .collect()
}

/// The unit stream at `rate` req/s, cut at `span`.
fn at_rate(unit: &[(f64, u32, u64)], rate: f64, span: Duration) -> Vec<Due> {
    let end = span.as_secs_f64();
    unit.iter()
        .map(|&(t, action, key)| Due {
            due: Duration::from_secs_f64(t / rate),
            action,
            key,
        })
        .take_while(|d| d.due.as_secs_f64() < end)
        .collect()
}

/// Non-homogeneous Poisson arrivals following one diurnal cosine cycle
/// from `trough` up to `peak` req/s and back over `period` (thinning
/// against the peak rate).
fn diurnal(trough: f64, peak: f64, period: Duration, n_actions: usize, seed: u64) -> Vec<Due> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xd1a7_0c1e);
    let p = period.as_secs_f64();
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.f64_open().ln() / peak;
        if t >= p {
            return out;
        }
        let rate =
            trough + (peak - trough) * (1.0 - (2.0 * std::f64::consts::PI * t / p).cos()) / 2.0;
        let keep = rng.chance(rate / peak);
        let action = rng.index(n_actions) as u32;
        let key = rng.next_u64();
        if keep {
            out.push(Due {
                due: Duration::from_secs_f64(t),
                action,
                key,
            });
        }
    }
}

fn sleep_actions(n: usize, cold: Duration) -> Vec<ActionSpec> {
    (0..n)
        .map(|i| {
            ActionSpec::noop(&format!("fn-{i}"))
                .with_body(ActionBody::Sleep(Duration::from_millis(1)))
                .with_cold_start(cold)
        })
        .collect()
}

/// Invoke every action once and wait for all of them, so each action's
/// pool holds a warm container before the measured phase.
fn warm(gw: &Gateway, col: &mut Collector, n_actions: usize) -> Result<(), String> {
    let reqs: Vec<(ActionId, u64)> = (0..n_actions)
        .map(|i| (ActionId(i as u32), i as u64))
        .collect();
    let mut outs = Vec::new();
    gw.invoke_burst(
        &reqs,
        Instant::now(),
        &mut outs,
        &mut BurstScratch::default(),
    );
    let mut want: Vec<u64> = outs.iter().filter_map(|o| o.ok().map(|a| a.id)).collect();
    if want.len() != n_actions {
        return Err(format!("warm-up: {} of {n_actions} admitted", want.len()));
    }
    let mut comps = Vec::new();
    let start = Instant::now();
    while !want.is_empty() {
        comps.clear();
        gw.collect_wait(col, &mut comps, Duration::from_millis(10));
        want.retain(|id| !comps.iter().any(|c| c.id == *id));
        if start.elapsed() > STALL {
            return Err(format!("warm-up: {} requests never completed", want.len()));
        }
    }
    Ok(())
}

// ------------------------------------------------------------- id books

/// The admitted requests still in flight, with a payload each, in
/// constant memory: ids are handed out in increasing order, so slot
/// `id % SLOTS` is free again long before the id `SLOTS` later is
/// admitted. A request still pending when its slot is reused moves to
/// an overflow map, so the book stays exact however old it gets.
struct IdBook<T> {
    slots: Vec<(u64, T)>,
    stragglers: HashMap<u64, T>,
    pending: u64,
}

impl<T: Copy> IdBook<T> {
    const SLOTS: u64 = 1 << 16;

    fn new(empty: T) -> Self {
        IdBook {
            slots: vec![(0, empty); Self::SLOTS as usize],
            stragglers: HashMap::new(),
            pending: 0,
        }
    }

    /// Record an admitted id (slot value `id + 1`; 0 marks a free slot).
    fn admit(&mut self, id: u64, payload: T) {
        let slot = &mut self.slots[(id % Self::SLOTS) as usize];
        if slot.0 != 0 {
            self.stragglers.insert(slot.0 - 1, slot.1);
        }
        *slot = (id + 1, payload);
        self.pending += 1;
    }

    /// Settle a completed id: its payload, or `None` when the id was
    /// never admitted or has already completed.
    fn complete(&mut self, id: u64) -> Option<T> {
        let slot = &mut self.slots[(id % Self::SLOTS) as usize];
        let payload = if slot.0 == id + 1 {
            slot.0 = 0;
            Some(slot.1)
        } else {
            self.stragglers.remove(&id)
        };
        if payload.is_some() {
            self.pending -= 1;
        }
        payload
    }

    /// Admitted ids not yet completed.
    fn pending(&self) -> u64 {
        self.pending
    }
}

// ------------------------------------------------------------- readings

/// Per-request readings taken from completions.
#[derive(Debug, Default)]
struct Readings {
    queue_wait_us: Vec<f64>,
    service_us: Vec<f64>,
    lag_us: Vec<f64>,
    cold: u64,
    n: u64,
    per_invoker: Vec<(u64, u64)>,
}

impl Readings {
    /// Fold in one completion; with `timing` — when its request was
    /// admitted and when the client thread saw it — also keep its stage times.
    fn note(&mut self, c: &Completion, timing: Option<(Instant, Instant)>) {
        self.n += 1;
        self.cold += u64::from(c.cold);
        match self.per_invoker.iter_mut().find(|(i, _)| *i == c.invoker) {
            Some(e) => e.1 += 1,
            None => self.per_invoker.push((c.invoker, 1)),
        }
        if let Some((sent, seen)) = timing {
            self.queue_wait_us.push(c.queue_wait.as_secs_f64() * 1e6);
            self.service_us.push(c.service.as_secs_f64() * 1e6);
            let done = sent + c.total;
            self.lag_us
                .push(seen.saturating_duration_since(done).as_secs_f64() * 1e6);
        }
    }

    fn absorb(&mut self, other: Readings) {
        self.queue_wait_us.extend(other.queue_wait_us);
        self.service_us.extend(other.service_us);
        self.lag_us.extend(other.lag_us);
        self.cold += other.cold;
        self.n += other.n;
        self.per_invoker.extend(other.per_invoker);
    }

    fn insert(self, l: &mut Values) {
        let qw = Dist::new(self.queue_wait_us);
        l.set("ring.queue_wait_us.p50", qw.pct(50.0));
        l.set("ring.queue_wait_us.p90", qw.pct_supported(90.0));
        l.set("pool.service_us.p50", Dist::new(self.service_us).pct(50.0));
        l.set(
            "gateway.collect_lag_us.p50",
            Dist::new(self.lag_us).pct(50.0),
        );
        l.set(
            "pool.cold_pct",
            100.0 * self.cold as f64 / self.n.max(1) as f64,
        );
        let counts: Vec<u64> = self.per_invoker.iter().map(|(_, n)| *n).collect();
        let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        l.set(
            "route.max_invoker_share",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
    }
}

/// `gateway_submit_contention_total` by source, from the gateway's
/// telemetry registry: queue wakes, full rings, collect claim skips.
fn contention(gw: &Gateway) -> [u64; 3] {
    let Some(t) = gw.telemetry() else {
        return [0; 3];
    };
    let snap = t.registry().snapshot();
    let read = |source: &str| {
        snap.counter("gateway_submit_contention_total", &[("source", source)])
            .unwrap_or(0)
    };
    [read("queue_wake"), read("ring_full"), read("collect_claim")]
}

fn insert_contention(l: &mut Values, before: [u64; 3], after: [u64; 3], ops: u64) {
    let per_kop = |i: usize| 1e3 * (after[i] - before[i]) as f64 / ops.max(1) as f64;
    l.set("ring.wakes_per_kop", per_kop(0));
    l.set("ring.full_per_kop", per_kop(1));
    l.set("collect.claim_skips_per_kop", per_kop(2));
}

/// Gateway-wide (accepted, shed, fast-lane moves) so far.
fn gw_counts(gw: &Gateway) -> (u64, u64, u64) {
    let c = gw.counters();
    (
        c.accepted.load(Ordering::Relaxed),
        c.shed_total(),
        c.fastlane_moves.load(Ordering::Relaxed),
    )
}

fn insert_tails(l: &mut Values, lat: &Dist) {
    l.set("diag.lat_p99_ms", lat.pct_supported(99.0));
    l.set("diag.lat_p999_ms", lat.pct_supported(99.9));
    l.set("samples.lat", lat.n() as f64);
}

/// The percentile line of a latency distribution, with its sample
/// count and the highest percentile it supports.
fn lat_note(what: &str, lat: &Dist) -> String {
    let tail = match crate::stats::highest_supported_percentile(lat.n()) {
        None => "no percentile has ten samples beyond it".to_string(),
        Some(p) if p <= 90.0 => format!("p{p} is the highest with ten samples beyond it"),
        Some(p) => format!("p{p} {:.3} ms", lat.pct(p)),
    };
    format!(
        "{what}: p50 {:.3} ms, p90 {:.3} ms, {tail} (n={})",
        lat.pct(50.0),
        lat.pct(90.0),
        lat.n()
    )
}

// ------------------------------------------------------------ open loop

/// What one open-loop pass over a schedule measured.
#[derive(Debug, Default)]
struct OpenRun {
    attempted: u64,
    accepted: u64,
    shed: u64,
    completed: u64,
    /// Admitted requests that never completed.
    lost: u64,
    /// Completions of ids this pass never admitted, or seen twice.
    unknown: u64,
    /// Latency from due time of every served request (ms).
    lat_ms: Vec<f64>,
    /// Generator lateness per request (µs).
    late_us: Vec<f64>,
    readings: Readings,
    collects: u64,
    empty_collects: u64,
    /// Traced runs only: time inside `invoke_burst` and the requests it
    /// carried; time inside non-empty-turn collects and what they moved.
    submit_ns: u64,
    submit_ops: u64,
    collect_ns: u64,
    collect_items: u64,
}

impl OpenRun {
    /// Fold another pass's readings into this one.
    fn absorb(&mut self, other: OpenRun) {
        self.attempted += other.attempted;
        self.accepted += other.accepted;
        self.shed += other.shed;
        self.completed += other.completed;
        self.lost += other.lost;
        self.unknown += other.unknown;
        self.lat_ms.extend(other.lat_ms);
        self.late_us.extend(other.late_us);
        self.readings.absorb(other.readings);
        self.collects += other.collects;
        self.empty_collects += other.empty_collects;
        self.submit_ns += other.submit_ns;
        self.submit_ops += other.submit_ops;
        self.collect_ns += other.collect_ns;
        self.collect_items += other.collect_items;
    }

    fn check(&self, what: &str, failures: &mut Vec<String>) {
        if self.lost > 0 {
            failures.push(format!("{what}: {} admitted requests lost", self.lost));
        }
        if self.unknown > 0 {
            failures.push(format!(
                "{what}: {} completions not matching exactly one admitted request",
                self.unknown
            ));
        }
        if self.accepted + self.shed != self.attempted {
            failures.push(format!(
                "{what}: accepted {} + shed {} != attempted {}",
                self.accepted, self.shed, self.attempted
            ));
        }
    }
}

/// Drive `schedule` open loop from one thread: every request is
/// submitted once it is due (up to [`BURST`] per `invoke_burst`), and
/// completions are collected between bursts. Returns once every
/// admitted request completed, or after [`STALL`] without progress.
fn open_loop(
    gw: &Gateway,
    col: &mut Collector,
    schedule: &[Due],
    mut tr: Option<&mut Tracer>,
) -> OpenRun {
    let mut r = OpenRun::default();
    let t0 = Instant::now();
    let mut pending: IdBook<(u32, Instant)> = IdBook::new((0, t0));
    let mut reqs = Vec::with_capacity(BURST);
    let mut outs = Vec::with_capacity(BURST);
    let mut scratch = BurstScratch::default();
    let mut comps: Vec<Completion> = Vec::with_capacity(256);
    let mut next = 0;
    let mut last_progress = t0;
    let mut idle_turns = 0;
    loop {
        let turn_start = Instant::now();
        let end = openloop::due_batch(schedule, next, turn_start - t0, BURST);
        let mut submit = None;
        let submitted = end > next;
        if submitted {
            reqs.clear();
            reqs.extend(
                schedule[next..end]
                    .iter()
                    .map(|d| (ActionId(d.action), d.key)),
            );
            outs.clear();
            let sent = Instant::now();
            gw.invoke_burst(&reqs, sent, &mut outs, &mut scratch);
            if tr.is_some() {
                submit = Some((sent, Instant::now()));
            }
            let sent_off = sent - t0;
            for (i, o) in outs.iter().enumerate() {
                let idx = next + i;
                r.attempted += 1;
                let late = openloop::lateness(schedule[idx].due, sent_off);
                r.late_us.push(late.as_secs_f64() * 1e6);
                match o {
                    Ok(a) => {
                        r.accepted += 1;
                        pending.admit(a.id, (idx as u32, sent));
                    }
                    Err(_) => r.shed += 1,
                }
            }
            next = end;
        }
        comps.clear();
        let collect_start = Instant::now();
        let n = gw.collect_completions_with(col, &mut comps);
        let seen = Instant::now();
        r.collects += 1;
        r.empty_collects += u64::from(n == 0);
        let seen_off = seen - t0;
        for c in &comps {
            let Some((idx, sent)) = pending.complete(c.id) else {
                r.unknown += 1;
                continue;
            };
            let due = schedule[idx as usize].due;
            let lat = openloop::latency_from_due(due, seen_off);
            r.lat_ms.push(lat.as_secs_f64() * 1e3);
            r.readings.note(c, Some((sent, seen)));
            r.completed += 1;
            if let Some(tr) = tr.as_deref_mut() {
                request_spans(tr, c, t0 + due, sent, seen);
            }
        }
        let busy = submitted || n > 0;
        if let Some(tr) = tr.as_deref_mut() {
            if busy {
                let turn = tr.record("client.turn", None, turn_start, Instant::now(), None);
                if let Some((a, b)) = submit {
                    tr.record("gateway.invoke_burst", Some(turn), a, b, None);
                    r.submit_ns += (b - a).as_nanos() as u64;
                    r.submit_ops += reqs.len() as u64;
                }
                tr.record("gateway.collect", Some(turn), collect_start, seen, None);
                r.collect_ns += (seen - collect_start).as_nanos() as u64;
                r.collect_items += n as u64;
            } else {
                // Idle spin turns are counted, not recorded.
                idle_turns += 1;
            }
        }
        if busy {
            last_progress = seen;
        }
        if next == schedule.len() {
            if pending.pending() == 0 {
                break;
            }
            if seen - last_progress > STALL {
                r.lost = pending.pending();
                break;
            }
        }
        if !busy {
            idle_until(schedule.get(next).map(|d| t0 + d.due));
        }
    }
    if let Some(tr) = tr {
        tr.add_calls("client.turn", idle_turns);
        tr.add_calls("gateway.collect", idle_turns);
    }
    r
}

/// Wait a little for the next due time: spin when it is close, yield
/// the core otherwise.
fn idle_until(next_due: Option<Instant>) {
    match next_due {
        Some(t) if t.saturating_duration_since(Instant::now()) < Duration::from_micros(50) => {
            std::hint::spin_loop()
        }
        _ => std::thread::yield_now(),
    }
}

/// Spans of one request, reconstructed from its completion: the request
/// from due time to when the client thread saw it, with the queue wait and the
/// service the gateway measured as children.
fn request_spans(tr: &mut Tracer, c: &Completion, due: Instant, sent: Instant, seen: Instant) {
    let req = tr.record("request", None, due, seen, Some(c.id));
    let started = sent + c.queue_wait;
    tr.record("ring.queue_wait", Some(req), sent, started, Some(c.id));
    tr.record(
        "pool.service",
        Some(req),
        started,
        started + c.service,
        Some(c.id),
    );
}

/// Per-layer readings common to every open-loop pass.
fn insert_open(l: &mut Values, r: OpenRun) {
    let late = Dist::new(r.late_us);
    l.set("gen.late_us.p50", late.pct(50.0));
    l.set("gen.late_us.p99", late.pct_supported(99.0));
    l.set(
        "gateway.collect_empty_pct",
        100.0 * r.empty_collects as f64 / r.collects.max(1) as f64,
    );
    if r.submit_ops > 0 {
        l.set(
            "gateway.submit_ns_per_op",
            r.submit_ns as f64 / r.submit_ops as f64,
        );
    }
    if r.collect_items > 0 {
        l.set(
            "gateway.collect_ns_per_completion",
            r.collect_ns as f64 / r.collect_items as f64,
        );
    }
    r.readings.insert(l);
}

// ----------------------------------------------------------- closed loop

/// What one closed-loop pass measured.
#[derive(Debug, Default)]
struct ClosedRun {
    attempted: u64,
    accepted: u64,
    shed: u64,
    completed: u64,
    lost: u64,
    unknown: u64,
    /// Time per 1,000 completions over each block of `block`
    /// consecutive completions (ms).
    block_ms: Vec<f64>,
    /// Submission-to-collection latency of the sampled requests (ms).
    lat_ms: Vec<f64>,
    readings: Readings,
    turns: u64,
    full_turns: u64,
    collects: u64,
    empty_collects: u64,
    /// Traced runs only, as in [`OpenRun`].
    submit_ns: u64,
    submit_ops: u64,
    collect_ns: u64,
    collect_items: u64,
}

impl ClosedRun {
    fn check(&self, what: &str, failures: &mut Vec<String>) {
        if self.lost > 0 {
            failures.push(format!("{what}: {} admitted requests lost", self.lost));
        }
        if self.unknown > 0 {
            failures.push(format!(
                "{what}: {} completions not matching exactly one admitted request",
                self.unknown
            ));
        }
        if self.accepted + self.shed != self.attempted {
            failures.push(format!(
                "{what}: accepted {} + shed {} != attempted {}",
                self.accepted, self.shed, self.attempted
            ));
        }
    }

    /// Completions per second of the median block.
    fn ops_per_s(&self) -> f64 {
        1e6 / Dist::new(self.block_ms.clone()).pct(50.0)
    }
}

/// The shape of a closed-loop pass.
#[derive(Debug, Clone, Copy)]
struct ClosedCfg {
    /// Requests in flight at most.
    window: u64,
    /// How long to keep submitting.
    span: Duration,
    /// Completions per timed block.
    block: u64,
    /// One request id in this many keeps its latency and stage times.
    sample: u64,
    /// When traced, one loop turn in this many is recorded as spans.
    trace_turn: u64,
}

/// Drive `pairs` (cycled) closed loop from one thread: a burst of
/// [`BURST`] goes out whenever at most `window − BURST` requests are in
/// flight, and completions are collected every turn. After `span`, stop
/// submitting and collect until every admitted request is back.
fn closed_loop(
    gw: &Gateway,
    col: &mut Collector,
    pairs: &[(ActionId, u64)],
    cfg: &ClosedCfg,
    mut tr: Option<&mut Tracer>,
) -> ClosedRun {
    let ClosedCfg {
        window,
        span,
        block,
        sample,
        trace_turn,
    } = *cfg;
    let mut r = ClosedRun::default();
    let mut book: IdBook<Instant> = IdBook::new(Instant::now());
    let mut block_start = None;
    let mut reqs = Vec::with_capacity(BURST);
    let mut outs = Vec::with_capacity(BURST);
    let mut scratch = BurstScratch::default();
    let mut comps: Vec<Completion> = Vec::with_capacity(1_024);
    let mut cursor = 0;
    let t0 = Instant::now();
    let deadline = t0 + span;
    let mut last_progress = t0;
    let (mut unrecorded_turns, mut unrecorded_bursts) = (0, 0);
    loop {
        let turn_start = Instant::now();
        let submitting = turn_start < deadline;
        if !submitting && book.pending() == 0 {
            break;
        }
        let traced_turn = tr.is_some() && r.turns % trace_turn == 0;
        r.turns += 1;
        let mut submit = None;
        let can_submit = submitting && book.pending() + BURST as u64 <= window;
        if can_submit {
            reqs.clear();
            reqs.extend((0..BURST).map(|i| pairs[(cursor + i) % pairs.len()]));
            cursor = (cursor + BURST) % pairs.len();
            outs.clear();
            let sent = Instant::now();
            gw.invoke_burst(&reqs, sent, &mut outs, &mut scratch);
            if traced_turn {
                submit = Some((sent, Instant::now()));
            }
            for o in &outs {
                r.attempted += 1;
                match o {
                    Ok(a) => {
                        r.accepted += 1;
                        book.admit(a.id, sent);
                    }
                    Err(_) => r.shed += 1,
                }
            }
        } else if submitting {
            r.full_turns += 1;
        }
        comps.clear();
        let collect_start = Instant::now();
        let n = gw.collect_completions_with(col, &mut comps);
        let seen = Instant::now();
        r.collects += 1;
        r.empty_collects += u64::from(n == 0);
        if n > 0 {
            last_progress = seen;
        }
        let mut traced_req = None;
        for c in &comps {
            let Some(sent) = book.complete(c.id) else {
                r.unknown += 1;
                continue;
            };
            r.completed += 1;
            if traced_turn && traced_req.is_none() {
                traced_req = Some((*c, sent));
            }
            // Blocks close only while the loop is still submitting, so
            // the final drain never counts as a slow block.
            if r.completed % block == 0 && submitting {
                if let Some(start) = block_start.replace(seen) {
                    r.block_ms
                        .push((seen - start).as_secs_f64() * 1e6 / block as f64);
                }
            }
            if c.id % sample == 0 {
                r.readings.note(c, Some((sent, seen)));
                r.lat_ms.push((seen - sent).as_secs_f64() * 1e3);
            } else {
                r.readings.note(c, None);
            }
        }
        if let Some(tr) = tr.as_deref_mut() {
            if traced_turn {
                let turn = tr.record("client.turn", None, turn_start, Instant::now(), None);
                if let Some((a, b)) = submit {
                    tr.record("gateway.invoke_burst", Some(turn), a, b, None);
                    r.submit_ns += (b - a).as_nanos() as u64;
                    r.submit_ops += BURST as u64;
                }
                tr.record("gateway.collect", Some(turn), collect_start, seen, None);
                r.collect_ns += (seen - collect_start).as_nanos() as u64;
                r.collect_items += n as u64;
                if let Some((c, sent)) = traced_req {
                    request_spans(tr, &c, sent, sent, seen);
                }
            } else {
                unrecorded_turns += 1;
                unrecorded_bursts += u64::from(can_submit);
            }
        }
        if !submitting && seen - last_progress > STALL {
            break;
        }
    }
    if let Some(tr) = tr {
        tr.add_calls("client.turn", unrecorded_turns);
        tr.add_calls("gateway.collect", unrecorded_turns);
        tr.add_calls("gateway.invoke_burst", unrecorded_bursts);
    }
    r.lost = book.pending();
    r
}

// ------------------------------------------------------------ noop_flat

/// `noop_flat`: a closed loop flat out against one invoker — 16 no-op
/// actions, bursts of 64, at most 1,024 requests in flight, one thread
/// submitting and collecting.
pub fn noop_flat(seed: u64, seconds: f64, tr: Option<&mut Tracer>) -> Outcome {
    const ACTIONS: usize = 16;
    const WINDOW: u64 = 1_024;
    /// One request in this many keeps its latency and stage times.
    const SAMPLE: u64 = 256;
    /// One loop turn in this many is recorded as spans when traced.
    const TRACE_TURN: u64 = 256;
    /// The unit of work is a block of this many consecutive completions;
    /// its time is reported per 1,000 invocations.
    const BLOCK: u64 = 65_536;
    const PAIRS: usize = 65_536;

    let mut o = Outcome::default();
    // Set-up: the request stream, the gateway, its invoker and one warm
    // container per action.
    let mut setup = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0b0b_f1a7);
        let pairs: Vec<(ActionId, u64)> = (0..PAIRS)
            .map(|_| (ActionId(rng.index(ACTIONS) as u32), rng.next_u64()))
            .collect();
        let gw = Gateway::new(
            GatewayConfig::default(),
            (0..ACTIONS)
                .map(|i| ActionSpec::noop(&format!("fn-{i}")))
                .collect(),
        );
        gw.start_invoker();
        let mut col = gw.collector();
        if let Err(e) = warm(&gw, &mut col, ACTIONS) {
            o.failures.push(e);
        }
        setup.push(t0.elapsed().as_secs_f64());
        if let Some((old, ..)) = fixture.replace((gw, col, pairs)) {
            old.shutdown();
        }
    }
    o.e2e.set("setup_s", median(&setup));
    let (gw, mut col, pairs) = fixture.expect("at least one set-up");
    o.layer.set("input.arrivals", pairs.len() as f64);
    o.notes.push(format!(
        "input: {} (action, key) pairs over {ACTIONS} no-op actions, replayed in order",
        pairs.len()
    ));

    let (acc0, shed0, _) = gw_counts(&gw);
    let cont0 = contention(&gw);
    let span = Duration::from_secs_f64(seconds);
    let cfg = ClosedCfg {
        window: WINDOW,
        span,
        block: BLOCK,
        sample: SAMPLE,
        trace_turn: TRACE_TURN,
    };
    let r = closed_loop(&gw, &mut col, &pairs, &cfg, tr);
    let (acc1, shed1, _) = gw_counts(&gw);
    let cont1 = contention(&gw);
    r.check("closed loop", &mut o.failures);
    if acc1 - acc0 != r.accepted || shed1 - shed0 != r.shed {
        o.failures.push(format!(
            "books: the client counted {} accepted + {} shed, gateway {} + {}",
            r.accepted,
            r.shed,
            acc1 - acc0,
            shed1 - shed0
        ));
    }
    if gw.shutdown() != 0 {
        o.failures.push("requests stranded at shutdown".into());
    }

    let blocks = Dist::new(r.block_ms.clone());
    let lat = Dist::new(r.lat_ms);
    let ops = 1e6 / blocks.pct(50.0);
    o.attempted = r.attempted;
    o.failed = r.shed + r.lost;
    o.cost = 1.0 / ops;
    o.lat_samples = blocks.n();
    o.e2e.set("ops_per_s", ops);
    // The median block's time is also what `ops_per_s` inverts: the two
    // are one reading. p90 is the slow end of the blocks.
    o.e2e.set("lat_p50_ms", blocks.pct(50.0));
    o.e2e.set("lat_p90_ms", blocks.pct(90.0));
    o.e2e.set(
        "served_pct",
        100.0 * r.completed as f64 / r.attempted.max(1) as f64,
    );
    o.notes.push(format!(
        "closed loop: {} completions in {seconds} s ({:.0} ops/s overall); {}",
        r.completed,
        r.completed as f64 / seconds,
        lat_note("time per 1,000 invocations over blocks of 65,536", &blocks)
    ));
    o.notes.push(lat_note(
        "request latency from submission (1 in 256 requests)",
        &lat,
    ));
    let l = &mut o.layer;
    insert_tails(l, &lat);
    l.set(
        "gateway.window_full_pct",
        100.0 * r.full_turns as f64 / r.turns.max(1) as f64,
    );
    l.set(
        "gateway.collect_empty_pct",
        100.0 * r.empty_collects as f64 / r.collects.max(1) as f64,
    );
    if r.submit_ops > 0 {
        l.set(
            "gateway.submit_ns_per_op",
            r.submit_ns as f64 / r.submit_ops as f64,
        );
    }
    if r.collect_items > 0 {
        l.set(
            "gateway.collect_ns_per_completion",
            r.collect_ns as f64 / r.collect_items as f64,
        );
    }
    insert_contention(l, cont0, cont1, r.completed);
    r.readings.insert(l);
    o
}

// ----------------------------------------------------------- sleep_open

/// `sleep_open`: Poisson arrivals at [`LOW_RPS`] and [`HIGH_RPS`]
/// against 64 sleep-1 ms actions on 8 fixed invokers, and the
/// saturation throughput of the same plane closed loop.
pub fn sleep_open(seed: u64, seconds: f64, mut tr: Option<&mut Tracer>) -> Outcome {
    const ACTIONS: usize = 64;
    const INVOKERS: usize = 8;
    /// The low rate runs in this many slices spread over the run, and
    /// its latencies are the median over the quieter half of them (see
    /// [`quiet_median`]).
    const LOW_SLICES: usize = 9;
    /// The high-rate step runs after this many low slices, the
    /// saturation phase after this many.
    const HIGH_AFTER: usize = 2;
    const CAPACITY_AFTER: usize = 5;
    /// Requests in flight in the saturation phase (32 per invoker).
    const CAPACITY_WINDOW: u64 = 256;
    let slice_span = Duration::from_secs_f64(seconds * 0.06);
    let high_span = Duration::from_secs_f64(seconds * 0.2);
    let capacity_span = Duration::from_secs_f64(seconds * 0.15);

    let mut o = Outcome::default();
    let mut setup = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        // Enough unit-rate arrivals for every low slice and for the
        // high-rate step, with a margin for the Poisson count.
        let needed = (slice_span.as_secs_f64() * LOW_SLICES as f64 * LOW_RPS)
            .max(high_span.as_secs_f64() * HIGH_RPS);
        let unit = unit_poisson((needed * 1.2) as usize + 64, ACTIONS, seed);
        // Each low-rate slice replays its own stretch of the stream.
        let slices: Vec<Vec<Due>> = (0..LOW_SLICES)
            .map(|i| {
                let from = slice_span.mul_f64(i as f64);
                at_rate(&unit, LOW_RPS, from + slice_span)
                    .into_iter()
                    .filter(|d| d.due >= from)
                    .map(|d| Due {
                        due: d.due - from,
                        ..d
                    })
                    .collect()
            })
            .collect();
        let high = at_rate(&unit, HIGH_RPS, high_span);
        let gw = Gateway::new(
            GatewayConfig::default(),
            sleep_actions(ACTIONS, Duration::ZERO),
        );
        for _ in 0..INVOKERS {
            gw.start_invoker();
        }
        let mut col = gw.collector();
        if let Err(e) = warm(&gw, &mut col, ACTIONS) {
            o.failures.push(e);
        }
        setup.push(t0.elapsed().as_secs_f64());
        if let Some((old, ..)) = fixture.replace((gw, col, unit, slices, high)) {
            old.shutdown();
        }
    }
    o.e2e.set("setup_s", median(&setup));
    let (gw, mut col, unit, slices, high) = fixture.expect("at least one set-up");
    let low_arrivals: usize = slices.iter().map(Vec::len).sum();
    o.layer
        .set("input.arrivals", (low_arrivals + high.len()) as f64);
    o.notes.push(format!(
        "input: {low_arrivals} arrivals at {LOW_RPS} req/s in {LOW_SLICES} slices of {:.2} s, {} at {HIGH_RPS} req/s over {:.2} s; saturation {:.2} s",
        slice_span.as_secs_f64(),
        high.len(),
        high_span.as_secs_f64(),
        capacity_span.as_secs_f64(),
    ));

    // The run: the low slices, with the high-rate step and the
    // saturation phase between them.
    let pairs: Vec<(ActionId, u64)> = unit
        .iter()
        .map(|&(_, action, key)| (ActionId(action), key))
        .collect();
    let (acc0, shed0, _) = gw_counts(&gw);
    let mut low_runs = Vec::new();
    let mut slice_steal = Vec::new();
    let (mut high_run, mut capacity, mut cont) = (None, None, None);
    for (i, slice) in slices.iter().enumerate() {
        if i == HIGH_AFTER {
            let cont0 = contention(&gw);
            high_run = Some(open_loop(&gw, &mut col, &high, None));
            cont = Some((cont0, contention(&gw)));
        }
        if i == CAPACITY_AFTER {
            let cfg = ClosedCfg {
                window: CAPACITY_WINDOW,
                span: capacity_span,
                block: 1_024,
                sample: u64::MAX,
                trace_turn: 1,
            };
            capacity = Some(closed_loop(&gw, &mut col, &pairs, &cfg, None));
        }
        let t = cpu_ticks();
        low_runs.push(open_loop(&gw, &mut col, slice, tr.as_deref_mut()));
        slice_steal.push(steal_pct(t, cpu_ticks()));
    }
    let (high_run, capacity) = (
        high_run.expect("the high step runs"),
        capacity.expect("the saturation phase runs"),
    );
    let (cont0, cont1) = cont.expect("the high step runs");
    let (acc1, shed1, _) = gw_counts(&gw);
    if gw.shutdown() != 0 {
        o.failures.push("requests stranded at shutdown".into());
    }

    let mut low_run = OpenRun::default();
    let (mut slice_p50, mut slice_p90) = (Vec::new(), Vec::new());
    for (i, run) in low_runs.into_iter().enumerate() {
        run.check(&format!("low rate, slice {i}"), &mut o.failures);
        let d = Dist::new(run.lat_ms.clone());
        slice_p50.push(d.pct(50.0));
        slice_p90.push(d.pct(90.0));
        low_run.absorb(run);
    }
    high_run.check("high rate", &mut o.failures);
    capacity.check("saturation", &mut o.failures);
    let attempted = low_run.attempted + high_run.attempted;
    let shed = low_run.shed + high_run.shed;
    // Every admission the client saw, against the gateway's counters.
    let accepted = low_run.accepted + high_run.accepted + capacity.accepted;
    let all_shed = shed + capacity.shed;
    if acc1 - acc0 != accepted || shed1 - shed0 != all_shed {
        o.failures.push(format!(
            "books: the client counted {accepted} accepted + {all_shed} shed, gateway {} + {}",
            acc1 - acc0,
            shed1 - shed0
        ));
    }
    let low_lat = Dist::new(low_run.lat_ms.clone());
    let high_lat = Dist::new(high_run.lat_ms.clone());
    let p50 = quiet_median(&slice_p50, &slice_steal);
    let p90 = quiet_median(&slice_p90, &slice_steal);
    let ops = capacity.ops_per_s();
    o.attempted = attempted;
    o.failed = shed + low_run.lost + high_run.lost;
    o.cost = p50;
    o.lat_samples = low_lat.n();
    o.e2e.set("ops_per_s", ops);
    o.e2e.set("lat_p50_ms", p50);
    o.e2e.set("lat_p90_ms", p90);
    o.e2e.set(
        "served_pct",
        100.0 * (low_run.completed + high_run.completed) as f64 / attempted.max(1) as f64,
    );
    o.notes.push(lat_note(
        &format!("latency from due at {LOW_RPS} req/s, slices pooled"),
        &low_lat,
    ));
    o.notes.push(format!(
        "median over the quieter half of {LOW_SLICES} slices at {LOW_RPS} req/s: p50 {p50:.3} ms, p90 {p90:.3} ms (slice p50s {slice_p50:.3?}, p90s {slice_p90:.3?}, % stolen {slice_steal:.2?})"
    ));
    o.notes.push(lat_note(
        &format!("latency from due at {HIGH_RPS} req/s"),
        &high_lat,
    ));
    o.notes.push(format!(
        "saturation: {ops:.0} req/s (median of {} blocks of 1,024 completions, {CAPACITY_WINDOW} in flight)",
        capacity.block_ms.len()
    ));
    let l = &mut o.layer;
    insert_tails(l, &low_lat);
    l.set("diag.lat_p50_ms.high", high_lat.pct(50.0));
    l.set("diag.lat_p90_ms.high", high_lat.pct(90.0));
    l.set("diag.lat_p99_ms.high", high_lat.pct_supported(99.0));
    l.set("samples.lat.high", high_lat.n() as f64);
    insert_contention(l, cont0, cont1, high_run.completed);
    insert_open(l, low_run);
    o
}

// ------------------------------------------------------ elastic_diurnal

/// Diurnal cycles one `elastic_diurnal` run measures; the latencies are
/// the median over the quieter half of them (see [`quiet_median`]).
const CYCLES: usize = 7;
const ELASTIC_ACTIONS: usize = 8;
const TROUGH_RPS: f64 = 100.0;
const PEAK_RPS: f64 = 4_000.0;
/// The simulated cluster: its size, the seed of its prime-job stream,
/// and the pinned invokers outside it. The cluster scenario is fixed and
/// only the arrivals follow `--seed`: across cluster seeds the idle
/// capacity prime-job churn leaves ranges from ample to too little to
/// serve the peak, which would make the workload measure the cluster
/// seed instead of the serving and capacity path.
const CLUSTER_NODES: usize = 64;
const CLUSTER_SEED: u64 = 11;
const FLOOR: usize = 1;
/// The simulated span of one cycle's DES.
const DES_HORIZON: SimDuration = SimDuration::from_hours(1);

/// Simulated seconds per wall second for a cycle of `cycle`: the DES
/// horizon ends at 80% of the cycle, so the source closes its books
/// while traffic still flows on the floor invokers.
fn des_speedup(cycle: Duration) -> f64 {
    DES_HORIZON.as_secs_f64() / (cycle.as_secs_f64() * 0.8)
}

/// The cluster DES a cycle leases its capacity from.
fn elastic_source(cycle: Duration) -> DesLeaseSource {
    DesLeaseSource::new(DesSourceCfg {
        n_nodes: CLUSTER_NODES,
        seed: CLUSTER_SEED,
        speedup: des_speedup(cycle),
        horizon: DES_HORIZON,
        max_leases: 12,
        floor: FLOOR,
        drain: SimDuration::from_secs(2),
        warmup: None,
        hpc_churn: true,
        sizer: SizerCfg {
            // The sizing of `closed_loop_live`'s feedback leg: a 10%
            // cushion, so the sizer's lag behind a rising load shows as
            // queueing in the latencies.
            rate_per_invoker: 850.0,
            headroom: 1.1,
            backlog_per_invoker: 32.0,
            min_invokers: 1,
            max_invokers: 12,
            alpha: 0.5,
        },
        pilot_len: SimDuration::from_mins(10),
        pilot_priority: 10,
        replenish_every: SimDuration::from_secs(15),
        ..Default::default()
    })
}

fn elastic_gateway() -> Gateway {
    Gateway::new(
        GatewayConfig {
            queue_capacity: 256,
            ..Default::default()
        },
        sleep_actions(ELASTIC_ACTIONS, Duration::from_micros(200)),
    )
}

const ELASTIC_CONTROLLER: ControllerConfig = ControllerConfig {
    drain_headroom: Duration::from_millis(2),
    min_routable: 1,
    poll_interval: Duration::from_millis(1),
    feedback_every: Some(Duration::from_millis(40)),
};

/// What one diurnal cycle measured.
struct Cycle {
    run: OpenRun,
    stats: LeaseStats,
    poll_us: Vec<f64>,
    /// `pilot_*_total` counters of the source's registry.
    pilot: [u64; 6],
    fastlane_moves: u64,
    contention: [u64; 3],
    setup_s: f64,
    /// Wall time the cycle served for: the floor invokers' time.
    serve_s: f64,
}

/// Set up and drive one cycle: a benchmark thread calls
/// `CapacityController::poll` and sleeps until the instant it returns,
/// while this thread drives the arrivals open loop.
fn elastic_cycle(
    schedule_seed: u64,
    cycle: Duration,
    o: &mut Outcome,
    mut tr: Option<&mut Tracer>,
) -> Cycle {
    let t0 = Instant::now();
    let schedule = diurnal(TROUGH_RPS, PEAK_RPS, cycle, ELASTIC_ACTIONS, schedule_seed);
    let gw = elastic_gateway();
    let src = elastic_source(cycle);
    let registry = src.registry().clone();
    let mut ctl =
        CapacityController::from_source(&gw, Box::new(src), ELASTIC_CONTROLLER, Instant::now());
    ctl.poll(Instant::now());
    let mut col = gw.collector();
    if let Err(e) = warm(&gw, &mut col, ELASTIC_ACTIONS) {
        o.failures.push(e);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let (acc0, shed0, moves0) = gw_counts(&gw);
    let cont0 = contention(&gw);
    let stop = AtomicBool::new(false);
    let epoch = tr.as_deref().map(Tracer::epoch);
    let serve_start = Instant::now();
    let (run, stats, poll_us, ctl_tracer) = std::thread::scope(|s| {
        let stop = &stop;
        let controller = s.spawn(move || {
            let mut ctr = epoch.map(Tracer::new);
            let mut poll_us = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let start = Instant::now();
                let next = ctl.poll(start);
                let done = Instant::now();
                poll_us.push((done - start).as_secs_f64() * 1e6);
                if let Some(ctr) = ctr.as_mut() {
                    ctr.record("controller.poll", None, start, done, None);
                }
                // Sleep until the instant poll asked for, waking at
                // least every 2 ms to notice the stop flag.
                let until = next
                    .unwrap_or(done + Duration::from_millis(1))
                    .min(done + Duration::from_millis(2));
                std::thread::sleep(until.saturating_duration_since(Instant::now()));
            }
            (ctl.finish(), poll_us, ctr)
        });
        let run = open_loop(&gw, &mut col, &schedule, tr.as_deref_mut());
        stop.store(true, Ordering::Release);
        let (stats, poll_us, ctr) = controller.join().expect("controller thread");
        (run, stats, poll_us, ctr)
    });
    let serve_s = serve_start.elapsed().as_secs_f64();
    if let (Some(tr), Some(ctr)) = (tr, ctl_tracer) {
        tr.absorb(ctr, None);
    }
    let (acc1, shed1, moves1) = gw_counts(&gw);
    let cont1 = contention(&gw);

    run.check("cycle", &mut o.failures);
    if acc1 - acc0 != run.accepted || shed1 - shed0 != run.shed {
        o.failures.push(format!(
            "books: the client counted {} accepted + {} shed, gateway {} + {}",
            run.accepted,
            run.shed,
            acc1 - acc0,
            shed1 - shed0
        ));
    }
    let snap = registry.snapshot();
    let pilot = [
        "pilot_grants_total",
        "pilot_revokes_total",
        "pilot_leased_node_secs_total",
        "pilot_submitted_total",
        "pilot_cancelled_total",
        "pilot_preemptions_total",
    ]
    .map(|name| snap.counter(name, &[]).unwrap_or(0));
    if pilot[0] != pilot[1] {
        o.failures.push(format!(
            "pilot books: {} grants but {} revokes at the horizon",
            pilot[0], pilot[1]
        ));
    }
    if stats.grants != stats.revokes + stats.reaped_at_finish {
        o.failures.push(format!(
            "controller books: {} grants != {} revokes + {} reaped",
            stats.grants, stats.revokes, stats.reaped_at_finish
        ));
    }
    if gw.shutdown() != 0 {
        o.failures.push("requests stranded at shutdown".into());
    }
    let pools = gw.retired_pool_stats();
    if !pools.containers_conserved() {
        o.failures
            .push(format!("containers not conserved: {pools:?}"));
    }
    Cycle {
        run,
        stats,
        poll_us,
        pilot,
        fastlane_moves: moves1 - moves0,
        contention: [0, 1, 2].map(|i| cont1[i] - cont0[i]),
        setup_s,
        serve_s,
    }
}

/// `elastic_diurnal`: diurnal cycles open loop against 8 sleep-1 ms
/// actions with a 200 µs cold start, capacity leased from a cluster DES
/// with prime-job churn through the capacity controller.
pub fn elastic_diurnal(seed: u64, seconds: f64, mut tr: Option<&mut Tracer>) -> Outcome {
    let cycle = Duration::from_secs_f64(seconds * 0.85 / CYCLES as f64);
    let mut o = Outcome::default();
    // Fixtures built and torn down only to time set-up; each measured
    // cycle times its own as well.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS - CYCLES {
        let t0 = Instant::now();
        std::hint::black_box(diurnal(TROUGH_RPS, PEAK_RPS, cycle, ELASTIC_ACTIONS, seed));
        let gw = elastic_gateway();
        let src = elastic_source(cycle);
        let mut ctl =
            CapacityController::from_source(&gw, Box::new(src), ELASTIC_CONTROLLER, Instant::now());
        ctl.poll(Instant::now());
        let mut col = gw.collector();
        if let Err(e) = warm(&gw, &mut col, ELASTIC_ACTIONS) {
            o.failures.push(e);
        }
        setup.push(t0.elapsed().as_secs_f64());
        ctl.finish();
        gw.shutdown();
    }
    let mut cycle_steal = Vec::new();
    let cycles: Vec<Cycle> = (0..CYCLES as u64)
        .map(|i| {
            let schedule_seed = seed.wrapping_mul(CYCLES as u64).wrapping_add(i);
            let t = cpu_ticks();
            let c = elastic_cycle(schedule_seed, cycle, &mut o, tr.as_deref_mut());
            cycle_steal.push(steal_pct(t, cpu_ticks()));
            c
        })
        .collect();
    setup.extend(cycles.iter().map(|c| c.setup_s));
    o.e2e.set("setup_s", median(&setup));

    let p50s: Vec<f64> = cycles
        .iter()
        .map(|c| Dist::new(c.run.lat_ms.clone()).pct(50.0))
        .collect();
    let p90s: Vec<f64> = cycles
        .iter()
        .map(|c| Dist::new(c.run.lat_ms.clone()).pct(90.0))
        .collect();
    let sum = |f: &dyn Fn(&Cycle) -> u64| cycles.iter().map(f).sum::<u64>();
    let attempted = sum(&|c| c.run.attempted);
    let completed = sum(&|c| c.run.completed);
    let shed = sum(&|c| c.run.shed);
    let lost = sum(&|c| c.run.lost);
    let leased_node_s = sum(&|c| c.pilot[2]) as f64;
    let speedup = des_speedup(cycle);
    let lat = Dist::new(cycles.iter().flat_map(|c| c.run.lat_ms.clone()).collect());
    o.attempted = attempted;
    o.failed = shed + lost;
    o.cost = quiet_median(&p50s, &cycle_steal);
    o.lat_samples = lat.n();
    // Served requests per second of invoker time: the leased
    // node-seconds mapped back to wall time, plus the floor invokers,
    // which serve through every whole cycle.
    let floor_s: f64 = cycles.iter().map(|c| FLOOR as f64 * c.serve_s).sum();
    o.e2e.set(
        "ops_per_s",
        completed as f64 / (leased_node_s / speedup + floor_s),
    );
    o.e2e.set("lat_p50_ms", quiet_median(&p50s, &cycle_steal));
    o.e2e.set("lat_p90_ms", quiet_median(&p90s, &cycle_steal));
    o.e2e.set(
        "served_pct",
        100.0 * completed as f64 / attempted.max(1) as f64,
    );
    o.layer.set("input.arrivals", attempted as f64);
    o.notes.push(format!(
        "input: {attempted} arrivals over {CYCLES} cycles of {:.2} s ({TROUGH_RPS}..{PEAK_RPS} req/s), each against a {CLUSTER_NODES}-node DES (cluster seed {CLUSTER_SEED}) over 3600 sim s at {speedup:.0}x",
        cycle.as_secs_f64()
    ));
    for (i, c) in cycles.iter().enumerate() {
        let s = &c.stats;
        o.notes.push(format!(
            "cycle {i}: steal {:.2}%, p50 {:.3} ms, p90 {:.3} ms (n={}); {} grants, {} revokes ({} surprise), {} deadline drains, {} feedbacks; {} leased node-s; shed {}",
            cycle_steal[i], p50s[i], p90s[i], c.run.completed, s.grants, s.revokes, s.surprise_revokes, s.deadline_drains, s.feedbacks, c.pilot[2], c.run.shed
        ));
    }
    o.notes
        .push(lat_note("latency from due, all cycles pooled", &lat));

    let poll = Dist::new(cycles.iter().flat_map(|c| c.poll_us.clone()).collect());
    let l = &mut o.layer;
    insert_tails(l, &lat);
    l.set("controller.poll_us.p50", poll.pct(50.0));
    l.set("controller.poll_us.p99", poll.pct_supported(99.0));
    l.set("lease.grants", sum(&|c| c.stats.grants) as f64);
    l.set(
        "lease.surprise_revokes",
        sum(&|c| c.stats.surprise_revokes) as f64,
    );
    l.set(
        "lease.deadline_drains",
        sum(&|c| c.stats.deadline_drains) as f64,
    );
    l.set("lease.feedbacks", sum(&|c| c.stats.feedbacks) as f64);
    l.set("lease.leased_node_s", leased_node_s);
    l.set("pilot.submitted", sum(&|c| c.pilot[3]) as f64);
    l.set("pilot.cancelled", sum(&|c| c.pilot[4]) as f64);
    l.set("pilot.preemptions", sum(&|c| c.pilot[5]) as f64);
    l.set(
        "gateway.fastlane_moves_per_kop",
        1e3 * sum(&|c| c.fastlane_moves) as f64 / completed.max(1) as f64,
    );
    let cont: [u64; 3] = [0, 1, 2].map(|i| sum(&|c| c.contention[i]));
    insert_contention(l, [0; 3], cont, completed);
    let mut merged = OpenRun::default();
    for c in cycles {
        merged.absorb(c.run);
    }
    insert_open(l, merged);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_scaled() {
        let a = unit_poisson(1_000, 8, 3);
        assert_eq!(a, unit_poisson(1_000, 8, 3));
        assert_ne!(a, unit_poisson(1_000, 8, 4));
        let s = at_rate(&a, 1_000.0, Duration::from_millis(500));
        // About 500 arrivals in half a second at 1,000 req/s.
        assert!((400..600).contains(&s.len()), "{}", s.len());
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        let d = diurnal(100.0, 4_000.0, Duration::from_secs(2), 8, 1);
        // Mean rate (trough + peak) / 2 over 2 s: about 4,100 arrivals.
        assert!((3_700..4_500).contains(&d.len()), "{}", d.len());
        assert_eq!(d, diurnal(100.0, 4_000.0, Duration::from_secs(2), 8, 1));
    }

    #[test]
    fn id_book_is_exact_for_stragglers_and_duplicates() {
        let mut book = IdBook::new(0u32);
        let slots = IdBook::<u32>::SLOTS;
        book.admit(5, 50);
        // Id 5 lingers while the id sharing its slot is admitted.
        book.admit(5 + slots, 51);
        assert_eq!(book.pending(), 2);
        assert_eq!(book.complete(5 + slots), Some(51));
        assert_eq!(book.complete(5 + slots), None, "completed twice");
        assert_eq!(book.complete(7), None, "never admitted");
        assert_eq!(book.complete(5), Some(50));
        assert_eq!(book.pending(), 0);
    }
}
