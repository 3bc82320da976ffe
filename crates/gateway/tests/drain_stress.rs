//! Drain-without-loss stress matrix (ISSUE 2 acceptance criterion,
//! extended by ISSUEs 3 and 4): 100 seeded iterations of randomized
//! churn — invoker leases granted, extended, drained at deadlines and
//! revoked at arbitrary points while a request stream flows — executed
//! at **drain batch sizes 1, 4 and 32**, and after every iteration,
//! **every accepted request completed exactly once**: no losses, no
//! duplicates, in every cell of the matrix.
//!
//! Since ISSUE 4 the churn no longer hand-rolls `start_invoker` /
//! `sigterm` / `join_invoker`: each iteration compiles a seeded
//! synthetic [`LeasePlan`] (Poisson grants, exponential holds, early
//! preemption-shaped revokes, renewals, a pinned routable floor) and
//! steps a [`CapacityController`] through it on a **virtual clock**
//! interleaved with the submissions — the same lease-driven lifecycle
//! the production scenario uses, with deterministic event points per
//! seed.
//!
//! This exercises the whole drain stack at once: the atomic queue
//! closure, batched fast-lane/home-queue pops (including a
//! deadline-led or surprise drain landing while a popped batch is
//! mid-execution — in-flight work finishes, only unstarted backlog
//! moves), the fast-lane move with preserved `produced_at` (the `mq`
//! ordering semantics), producer-vs-drain races rerouting to the fast
//! lane, the router's epoch swaps under membership churn, the sharded
//! completion path under invoker death and slot reuse, and the
//! controller's deadline-headroom drains racing live traffic.

use gateway::{
    ActionBody, ActionId, ActionSpec, AdmissionPolicy, BurstScratch, CapacityController, ChurnCfg,
    ControllerConfig, Gateway, GatewayConfig, LeasePlan, TokenBucketCfg,
};
use simcore::SimRng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn hundred_randomized_drains_exactly_once_batch_1() {
    for iter in 0..100u64 {
        run_iteration(iter, 1);
    }
}

#[test]
fn hundred_randomized_drains_exactly_once_batch_4() {
    for iter in 0..100u64 {
        run_iteration(iter, 4);
    }
}

#[test]
fn hundred_randomized_drains_exactly_once_batch_32() {
    for iter in 0..100u64 {
        run_iteration(iter, 32);
    }
}

/// ISSUE 9: the same exactly-once guarantee under **real concurrent
/// submitters and collectors** racing live lease churn. Every cell of
/// the {1, 2, 4}-submitter × {1, 2}-collector matrix runs seeded churn
/// iterations with the controller replaying its plan on its own thread,
/// and asserts conservation — `submitted = accepted + shed`, the
/// accepted sets disjoint across submitters, the collected id-sets
/// disjoint across collectors, and their union exactly the accepted
/// union (`lost == 0`, nothing duplicated).
#[test]
fn submitter_collector_matrix_exactly_once_under_churn() {
    for n_sub in [1usize, 2, 4] {
        for n_col in [1usize, 2] {
            for seed in 0..4u64 {
                run_matrix_iteration(seed, n_sub, n_col);
            }
        }
    }
}

/// ISSUE 10: the sharded GCRA shaper under the same live churn. Each
/// submitter thread binds its submitter index as its shard affinity, so
/// with 4 shards and {1, 2, 4} submitters every submitter owns a
/// distinct shard. Asserts, on top of exactly-once:
///
/// - **per-shard conservation** — each shard's
///   `admitted + delayed + shed` equals exactly the number of arrivals
///   its bound submitter offered (unused shards stay at zero), i.e. no
///   arrival is double-counted or lost across the rebalancing CASes;
/// - **global rate bound** — total admissions never exceed what the
///   aggregate token line (max capacity × rate, plus burst and delay
///   credit) could have issued in the measured wall-clock window: the
///   sharded shaper never over-admits the single-line contract.
#[test]
fn sharded_shaper_churn_conservation() {
    for n_sub in [1usize, 2, 4] {
        for seed in 0..3u64 {
            run_sharded_iteration(seed, n_sub);
        }
    }
}

fn run_sharded_iteration(seed: u64, n_sub: usize) {
    const RATE: f64 = 1_000.0;
    const BURST: f64 = 48.0;
    const MAX_DELAY: Duration = Duration::from_millis(10);
    // The gateway's fixed admission shard count.
    const SHARDS: usize = 4;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5bd1_e995 ^ ((n_sub as u64) << 48));
    let n_requests = 300 + rng.index(200);
    let gw = Gateway::new(
        GatewayConfig {
            queue_capacity: 16,
            park: Duration::from_micros(200),
            drain_batch: 8,
            admission: AdmissionPolicy::TokenBucket(TokenBucketCfg {
                rate_per_invoker: RATE,
                burst: BURST,
                max_delay: MAX_DELAY,
            }),
            ..Default::default()
        },
        vec![
            ActionSpec::noop("noop"),
            ActionSpec::noop("spin").with_body(ActionBody::Spin(Duration::from_micros(
                20 + rng.range_u64(0, 40),
            ))),
        ],
    );
    let horizon = Duration::from_millis(40);
    let plan = LeasePlan::synthetic_churn(
        &ChurnCfg {
            horizon,
            mean_hold: horizon / 5,
            target_active: 3,
            max_active: 6,
            min_active: 1,
            early_revoke_frac: 0.4,
            extend_frac: 0.3,
        },
        seed,
    );
    let t0 = Instant::now();
    let mut ctl = CapacityController::new(
        &gw,
        plan,
        ControllerConfig {
            drain_headroom: Duration::from_millis(2),
            min_routable: 1,
            ..Default::default()
        },
        t0,
    );
    ctl.poll(t0);

    let stop = AtomicBool::new(false);
    let submitting = AtomicUsize::new(n_sub);
    let accepted_total = AtomicUsize::new(0);
    let collected_total = AtomicUsize::new(0);
    let submit_start = Instant::now();

    let (per_sub, accepted) = std::thread::scope(|s| {
        let gw = &gw;
        let stop = &stop;
        let submitting = &submitting;
        let accepted_total = &accepted_total;
        let collected_total = &collected_total;
        let ctl_handle = s.spawn(move || {
            ctl.run(stop);
            ctl.finish()
        });
        let sub_handles: Vec<_> = (0..n_sub)
            .map(|si| {
                let share = n_requests / n_sub + usize::from(si < n_requests % n_sub);
                let mut rng = SimRng::seed_from_u64(seed ^ (0xb5ad_4ece + si as u64));
                s.spawn(move || {
                    // Shard affinity = submitter index: all this
                    // thread's arrivals land on shard `si % SHARDS`.
                    gw.bind_submitter(si);
                    let mut scratch = BurstScratch::default();
                    let mut accepted = HashSet::new();
                    let mut offered = 0usize;
                    while offered < share {
                        if rng.chance(0.25) {
                            let n = (2 + rng.index(8)).min(share - offered);
                            let reqs: Vec<_> = (0..n)
                                .map(|_| (ActionId(rng.index(2) as u32), rng.next_u64()))
                                .collect();
                            let mut outcomes = Vec::new();
                            gw.invoke_burst(&reqs, Instant::now(), &mut outcomes, &mut scratch);
                            offered += n;
                            for outcome in outcomes.into_iter().flatten() {
                                assert!(accepted.insert(outcome.id), "duplicate admit id");
                            }
                        } else {
                            offered += 1;
                            if let Ok(admit) =
                                gw.invoke(ActionId(rng.index(2) as u32), rng.next_u64())
                            {
                                assert!(accepted.insert(admit.id), "duplicate admit id");
                            }
                        }
                    }
                    accepted_total.fetch_add(accepted.len(), Ordering::AcqRel);
                    submitting.fetch_sub(1, Ordering::AcqRel);
                    (si, offered, accepted)
                })
            })
            .collect();
        let col_handle = s.spawn(move || {
            let mut col = gw.collector();
            let mut buf = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                buf.clear();
                let got = gw.collect_wait(&mut col, &mut buf, Duration::from_millis(1));
                if got > 0 {
                    collected_total.fetch_add(got, Ordering::AcqRel);
                    continue;
                }
                if submitting.load(Ordering::Acquire) == 0
                    && collected_total.load(Ordering::Acquire)
                        >= accepted_total.load(Ordering::Acquire)
                {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "seed {seed} {n_sub}sub sharded: lost requests ({}/{} collected)",
                    collected_total.load(Ordering::Relaxed),
                    accepted_total.load(Ordering::Relaxed),
                );
            }
        });
        let per_sub: Vec<(usize, usize, HashSet<u64>)> = sub_handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect();
        col_handle.join().expect("collector");
        stop.store(true, Ordering::Release);
        ctl_handle.join().expect("controller");
        let accepted: usize = per_sub.iter().map(|(_, _, a)| a.len()).sum();
        (per_sub, accepted)
    });
    let elapsed = submit_start.elapsed();

    // Per-shard conservation: with explicit affinity every submitter's
    // offered count must reappear, exactly, as its shard's
    // admitted + delayed + shed — and shards no submitter bound to must
    // have seen nothing.
    let stats = gw.admission_shard_stats();
    assert_eq!(stats.len(), SHARDS);
    let mut offered_by_shard = [0u64; SHARDS];
    for (si, offered, _) in &per_sub {
        offered_by_shard[si % SHARDS] += *offered as u64;
    }
    for (shard, st) in stats.iter().enumerate() {
        assert_eq!(
            st.admitted + st.delayed + st.shed,
            offered_by_shard[shard],
            "seed {seed} {n_sub}sub: shard {shard} lost or double-counted arrivals: {st:?}"
        );
    }

    // Global sustained-rate bound: even with every grant healthy for
    // the whole window the aggregate line could issue at most
    // burst + (elapsed + max_delay) * max_capacity * rate admissions;
    // a sharded shaper that over-admits past the single-line contract
    // (plus one quantum of slack per line) fails here.
    let bound = (elapsed + MAX_DELAY).as_secs_f64() * RATE * 6.0 + 2.0 * BURST + SHARDS as f64;
    assert!(
        (accepted as f64) <= bound,
        "seed {seed} {n_sub}sub: sharded shaper over-admitted: {accepted} accepted > bound {bound:.0}"
    );

    assert_eq!(gw.shutdown(), 0, "seed {seed} {n_sub}sub sharded");
    assert_eq!(gw.counters().outstanding(), 0);
    let pools = gw.retired_pool_stats();
    assert!(pools.containers_conserved(), "container leak: {pools:?}");
}

fn run_matrix_iteration(seed: u64, n_sub: usize, n_col: usize) {
    let cell = ((n_sub as u64) << 8) | n_col as u64;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x9e37_79b9 ^ (cell << 40));
    let n_requests = 300 + rng.index(200); // 300..=499, split across submitters
    let gw = Gateway::new(
        GatewayConfig {
            queue_capacity: 16,
            park: Duration::from_micros(200),
            drain_batch: 8,
            ..Default::default()
        },
        vec![
            ActionSpec::noop("noop"),
            ActionSpec::noop("spin").with_body(ActionBody::Spin(Duration::from_micros(
                20 + rng.range_u64(0, 40),
            ))),
        ],
    );
    // Wall-clock churn this time: the controller replays the plan on
    // its own thread while submitters and collectors run flat out, so
    // grants/drains/revokes land at genuinely arbitrary points in the
    // submit and sweep races.
    let horizon = Duration::from_millis(40);
    let plan = LeasePlan::synthetic_churn(
        &ChurnCfg {
            horizon,
            mean_hold: horizon / 5,
            target_active: 3,
            max_active: 6,
            min_active: 1,
            early_revoke_frac: 0.4,
            extend_frac: 0.3,
        },
        seed,
    );
    let t0 = Instant::now();
    let mut ctl = CapacityController::new(
        &gw,
        plan,
        ControllerConfig {
            drain_headroom: Duration::from_millis(2),
            min_routable: 1,
            ..Default::default()
        },
        t0,
    );
    // Epoch grants before traffic so bring-up never races the stream.
    ctl.poll(t0);

    let stop = AtomicBool::new(false);
    let submitting = AtomicUsize::new(n_sub);
    let accepted_total = AtomicUsize::new(0);
    let collected_total = AtomicUsize::new(0);

    let (accepted_sets, collected_sets, ctl_stats) = std::thread::scope(|s| {
        let gw = &gw;
        let stop = &stop;
        let submitting = &submitting;
        let accepted_total = &accepted_total;
        let collected_total = &collected_total;
        let ctl_handle = s.spawn(move || {
            ctl.run(stop);
            ctl.finish()
        });
        let sub_handles: Vec<_> = (0..n_sub)
            .map(|si| {
                let share = n_requests / n_sub + usize::from(si < n_requests % n_sub);
                let mut rng = SimRng::seed_from_u64(seed ^ (0xb5ad_4ece + si as u64));
                s.spawn(move || {
                    let mut scratch = BurstScratch::default();
                    let mut accepted = HashSet::new();
                    let mut shed = 0u64;
                    let mut submitted = 0usize;
                    while submitted < share {
                        if rng.chance(0.25) {
                            let n = (2 + rng.index(8)).min(share - submitted);
                            let reqs: Vec<_> = (0..n)
                                .map(|_| (ActionId(rng.index(2) as u32), rng.next_u64()))
                                .collect();
                            let mut outcomes = Vec::new();
                            gw.invoke_burst(&reqs, Instant::now(), &mut outcomes, &mut scratch);
                            submitted += n;
                            for outcome in outcomes {
                                match outcome {
                                    Ok(admit) => {
                                        assert!(accepted.insert(admit.id), "duplicate admit id");
                                    }
                                    Err(_) => shed += 1,
                                }
                            }
                        } else {
                            submitted += 1;
                            match gw.invoke(ActionId(rng.index(2) as u32), rng.next_u64()) {
                                Ok(admit) => {
                                    assert!(accepted.insert(admit.id), "duplicate admit id");
                                }
                                Err(_) => shed += 1,
                            }
                        }
                    }
                    // Conservation on the submit side: every attempt is
                    // either in the accepted set or counted shed.
                    assert_eq!(submitted as u64, accepted.len() as u64 + shed);
                    accepted_total.fetch_add(accepted.len(), Ordering::AcqRel);
                    submitting.fetch_sub(1, Ordering::AcqRel);
                    accepted
                })
            })
            .collect();
        let col_handles: Vec<_> = (0..n_col)
            .map(|_| {
                s.spawn(move || {
                    let mut col = gw.collector();
                    let mut buf = Vec::new();
                    let mut ids = Vec::new();
                    let deadline = Instant::now() + Duration::from_secs(20);
                    loop {
                        buf.clear();
                        let got = gw.collect_wait(&mut col, &mut buf, Duration::from_millis(1));
                        if got > 0 {
                            ids.extend(buf.iter().map(|c| c.id));
                            collected_total.fetch_add(got, Ordering::AcqRel);
                            continue;
                        }
                        // Submitters done ⇒ accepted_total is final; all
                        // collectors stop once the union is complete.
                        if submitting.load(Ordering::Acquire) == 0
                            && collected_total.load(Ordering::Acquire)
                                >= accepted_total.load(Ordering::Acquire)
                        {
                            break;
                        }
                        assert!(
                            Instant::now() < deadline,
                            "seed {seed} {n_sub}sub/{n_col}col: lost requests \
                             ({}/{} collected)",
                            collected_total.load(Ordering::Relaxed),
                            accepted_total.load(Ordering::Relaxed),
                        );
                    }
                    ids
                })
            })
            .collect();
        let accepted_sets: Vec<HashSet<u64>> = sub_handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect();
        let collected_sets: Vec<Vec<u64>> = col_handles
            .into_iter()
            .map(|h| h.join().expect("collector"))
            .collect();
        stop.store(true, Ordering::Release);
        let stats = ctl_handle.join().expect("controller");
        (accepted_sets, collected_sets, stats)
    });

    // Accepted ids are globally unique across submitters.
    let mut accepted = HashSet::new();
    for set in &accepted_sets {
        for id in set {
            assert!(
                accepted.insert(*id),
                "seed {seed} {n_sub}sub/{n_col}col: admit id {id} issued twice"
            );
        }
    }
    // The collectors' id-sets are disjoint and their union is exactly
    // the accepted set: exactly-once across concurrent collectors.
    let mut completed = HashSet::new();
    for ids in &collected_sets {
        for id in ids {
            assert!(
                completed.insert(*id),
                "seed {seed} {n_sub}sub/{n_col}col: request {id} collected twice"
            );
        }
    }
    assert_eq!(
        completed, accepted,
        "seed {seed} {n_sub}sub/{n_col}col: collected ≠ accepted"
    );
    assert!(ctl_stats.grants >= 1, "plan granted nothing: {ctl_stats:?}");
    assert_eq!(gw.shutdown(), 0, "seed {seed} {n_sub}sub/{n_col}col");
    assert_eq!(gw.counters().outstanding(), 0);
    assert_eq!(
        gw.collect_completions_with(&mut gw.collector(), &mut Vec::new()),
        0,
        "stray completion"
    );
    let pools = gw.retired_pool_stats();
    assert!(pools.containers_conserved(), "container leak: {pools:?}");
}

fn run_iteration(seed: u64, drain_batch: usize) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xd8a1_57e5 ^ (drain_batch as u64) << 32);
    let n_requests = 120 + rng.index(180); // 120..=299
    let gw = Gateway::new(
        GatewayConfig {
            // Small queues make producer-vs-drain races and fast-lane
            // fallbacks far more likely — and with drain_batch above
            // the queue bound, whole backlogs pop as one batch.
            queue_capacity: 16,
            park: Duration::from_micros(200),
            drain_batch,
            ..Default::default()
        },
        vec![
            ActionSpec::noop("noop"),
            // A touch of real work so backlogs build and drains land
            // mid-burst (and, at batch sizes > 1, mid-batch).
            ActionSpec::noop("spin").with_body(ActionBody::Spin(Duration::from_micros(
                20 + rng.range_u64(0, 60),
            ))),
        ],
    );
    // The lease schedule: one virtual tick per submitted request, churn
    // dense enough that several grant/extend/drain/revoke transitions
    // land inside every iteration. The pinned floor keeps one invoker
    // routable at all times, so everything accepted can complete.
    let step = Duration::from_micros(100);
    let horizon = step * n_requests as u32;
    let plan = LeasePlan::synthetic_churn(
        &ChurnCfg {
            horizon,
            mean_hold: horizon / 5,
            target_active: 3,
            max_active: 6,
            min_active: 1,
            early_revoke_frac: 0.4,
            extend_frac: 0.3,
        },
        seed,
    );
    let t0 = Instant::now();
    let mut ctl = CapacityController::new(
        &gw,
        plan,
        ControllerConfig {
            drain_headroom: step * 2,
            min_routable: 1,
            ..Default::default()
        },
        t0,
    );

    let mut accepted = HashSet::new();
    let mut shed = 0u64;
    let mut scratch = BurstScratch::default();
    for i in 0..n_requests {
        // Advance the lease clock: grants, deadline drains, revokes and
        // renewals interleave with the stream at seed-determined points.
        ctl.poll(t0 + step * i as u32);
        // Mix the two submit paths: mostly single invokes, ~25% grouped
        // bursts (the batched-producer path that can race a drain with
        // a whole group and take the fast-lane fallback wholesale).
        if rng.chance(0.25) {
            let n = 2 + rng.index(10);
            let reqs: Vec<_> = (0..n)
                .map(|_| (ActionId(rng.index(2) as u32), rng.next_u64()))
                .collect();
            let mut outcomes = Vec::new();
            gw.invoke_burst(&reqs, Instant::now(), &mut outcomes, &mut scratch);
            assert_eq!(outcomes.len(), reqs.len());
            for outcome in outcomes {
                match outcome {
                    Ok(admit) => {
                        assert!(accepted.insert(admit.id), "request ids must be unique");
                    }
                    Err(_) => shed += 1,
                }
            }
        } else {
            let action = ActionId(rng.index(2) as u32);
            match gw.invoke(action, rng.next_u64()) {
                Ok(admit) => {
                    assert!(accepted.insert(admit.id), "request ids must be unique");
                }
                Err(_) => shed += 1,
            }
        }
    }

    // Collect every completion; exactly-once means the completed set
    // equals the accepted set with no duplicates.
    let mut completed = HashSet::new();
    let mut col = gw.collector();
    let mut buf = Vec::new();
    while completed.len() < accepted.len() {
        buf.clear();
        if gw.collect_wait(&mut col, &mut buf, Duration::from_secs(10)) == 0 {
            panic!(
                "seed {seed} batch {drain_batch}: lost {} of {} accepted requests ({} shed, {:?})",
                accepted.len() - completed.len(),
                accepted.len(),
                shed,
                ctl.stats(),
            )
        }
        for c in &buf {
            assert!(
                completed.insert(c.id),
                "seed {seed} batch {drain_batch}: request {} executed twice",
                c.id
            );
            assert!(
                accepted.contains(&c.id),
                "seed {seed} batch {drain_batch}: completion for unknown request {}",
                c.id
            );
        }
    }
    assert_eq!(completed, accepted, "seed {seed} batch {drain_batch}");
    let stats = ctl.finish();
    assert!(stats.grants >= 1, "plan granted nothing: {stats:?}");
    // Graceful shutdown afterwards strands nothing: everything accepted
    // already completed.
    assert_eq!(gw.shutdown(), 0, "seed {seed} batch {drain_batch}");
    assert_eq!(
        gw.counters().outstanding(),
        0,
        "seed {seed} batch {drain_batch}"
    );
    assert_eq!(
        gw.collect_completions_with(&mut col, &mut buf),
        0,
        "seed {seed} batch {drain_batch}: stray completion"
    );
    // Container conservation: with every invoker joined, each container
    // ever cold-started left through exactly one retirement path.
    let pools = gw.retired_pool_stats();
    assert!(
        pools.containers_conserved(),
        "seed {seed} batch {drain_batch}: container leak: {pools:?}"
    );
}
