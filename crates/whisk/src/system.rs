//! The FaaS platform: controller, invokers, and the HPC-Whisk dynamic
//! worker protocol, as one event-driven state machine.
//!
//! Data path of one invocation (§II):
//! client → controller (routing by function hash over the *dynamic*
//! healthy set) → per-invoker Kafka topic → invoker poll loop → container
//! (warm, or cold-started) → execution → result → client.
//!
//! The HPC-Whisk extensions (§III-C) implemented here:
//!
//! * invokers register/de-register dynamically; the controller keeps a
//!   live list of routable invokers and answers **503** when it is empty;
//! * on SIGTERM the invoker stops pulling, the controller *moves* its
//!   unpulled topic messages to the global **fast lane**, the invoker
//!   flushes its internal buffer there too, and (for interruptible
//!   functions) aborts running executions and re-routes them;
//! * every invoker pulls the fast lane **before** its own topic;
//! * a silently-dead invoker keeps receiving requests until its missed
//!   health pings are noticed (`health_timeout`); in
//!   [`DynamicsMode::HpcWhisk`] the orphaned topic is then recovered to
//!   the fast lane, in [`DynamicsMode::Baseline`] it is dropped and the
//!   requests time out — the stock OpenWhisk failure the paper fixes.

use crate::action::FunctionSpec;
use crate::activation::{ActState, ActivationRecord, InvokeResult, Outcome};
use crate::config::{DynamicsMode, WhiskConfig};
use crate::container::Acquire;
use crate::events::{WhiskEvent, WhiskNote};
use crate::ids::{stable_hash, ActivationId, FunctionId, InvokerId};
use crate::invoker::{Invoker, InvokerState};
use metrics::StepSeries;
use mq::{Broker, TopicId};
use simcore::{Outbox, SimRng, SimTime};
use std::collections::{HashMap, VecDeque};

/// Worker-count series (the OpenWhisk-level perspective of Tables
/// II/III: healthy vs irresponsive workers over time).
#[derive(Debug, Clone)]
pub struct WhiskSeries {
    /// Healthy (serving) invokers.
    pub healthy: StepSeries,
    /// Irresponsive invokers: draining or dead-but-unnoticed.
    pub irresp: StepSeries,
}

/// Aggregate platform counters.
#[derive(Debug, Clone, Default)]
pub struct WhiskCounters {
    /// Invocations submitted by clients.
    pub submitted: u64,
    /// Rejected with 503 (no healthy invoker).
    pub rejected_503: u64,
    /// Answered successfully.
    pub success: u64,
    /// Failed during execution.
    pub failed: u64,
    /// Timed out at the controller deadline.
    pub timeout: u64,
    /// Requests re-routed through the fast lane (buffer flush +
    /// interrupted executions).
    pub refired: u64,
    /// Unpulled messages moved topic → fast lane by the controller.
    pub moved_to_fastlane: u64,
    /// Warm container hits.
    pub warm_starts: u64,
    /// Cold starts.
    pub cold_starts: u64,
    /// Invokers that de-registered cleanly.
    pub drains_clean: u64,
    /// Invokers that died without de-registering.
    pub hard_deaths: u64,
    /// Orphaned messages recovered after a noticed death (HpcWhisk mode).
    pub recovered_after_death: u64,
    /// Orphaned messages dropped after a noticed death (Baseline mode).
    pub dropped_after_death: u64,
}

/// The FaaS platform state machine.
pub struct WhiskSys {
    cfg: WhiskConfig,
    broker: Broker<ActivationId>,
    fast_lane: TopicId,
    functions: Vec<FunctionSpec>,
    records: Vec<ActivationRecord>,
    invokers: HashMap<InvokerId, Invoker>,
    routable: Vec<InvokerId>,
    deadline_queue: VecDeque<(SimTime, ActivationId)>,
    rng: SimRng,
    series: WhiskSeries,
    counters: WhiskCounters,
    n_healthy: i64,
    n_irresp: i64,
    speed_factor: f64,
}

impl WhiskSys {
    /// A fresh platform with no functions or invokers.
    pub fn new(cfg: WhiskConfig, seed: u64) -> Self {
        let mut broker = Broker::new();
        let fast_lane = broker.create_topic("fast-lane");
        WhiskSys {
            cfg,
            broker,
            fast_lane,
            functions: Vec::new(),
            records: Vec::new(),
            invokers: HashMap::new(),
            routable: Vec::new(),
            deadline_queue: VecDeque::new(),
            rng: SimRng::seed_from_u64(seed ^ 0x7768_6973_6b00),
            series: WhiskSeries {
                healthy: StepSeries::new(SimTime::ZERO, 0.0),
                irresp: StepSeries::new(SimTime::ZERO, 0.0),
            },
            counters: WhiskCounters::default(),
            n_healthy: 0,
            n_irresp: 0,
            speed_factor: 1.0,
        }
    }

    /// Set the compute speed factor for `Busy` functions (1.0 = the
    /// reference HPC node; >1 = slower platform).
    pub fn with_speed_factor(mut self, f: f64) -> Self {
        assert!(f > 0.0);
        self.speed_factor = f;
        self
    }

    /// Schedule the controller's periodic work.
    pub fn bootstrap(&mut self, now: SimTime, out: &mut Outbox<WhiskEvent>) {
        out.at(now + self.cfg.timeout_scan_every, WhiskEvent::TimeoutScan);
    }

    /// Deploy a function.
    pub fn register_function(&mut self, spec: FunctionSpec) -> FunctionId {
        let id = FunctionId(self.functions.len() as u32);
        self.functions.push(spec);
        id
    }

    /// Number of deployed functions.
    pub fn n_functions(&self) -> usize {
        self.functions.len()
    }

    /// Healthy invoker count.
    pub fn n_healthy(&self) -> usize {
        self.n_healthy as usize
    }

    /// Counters.
    pub fn counters(&self) -> &WhiskCounters {
        &self.counters
    }

    /// Worker-count series.
    pub fn series(&self) -> &WhiskSeries {
        &self.series
    }

    /// Controller record of an activation (tests/diagnostics).
    pub fn record(&self, act: ActivationId) -> &ActivationRecord {
        &self.records[act.0 as usize]
    }

    /// Depth of the fast lane (diagnostics).
    pub fn fast_lane_depth(&self) -> usize {
        self.broker.depth(self.fast_lane)
    }

    // ------------------------------------------------------------------
    // Client API
    // ------------------------------------------------------------------

    /// Submit an invocation at `now` (client send time).
    pub fn invoke(
        &mut self,
        now: SimTime,
        f: FunctionId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) -> InvokeResult {
        assert!((f.0 as usize) < self.functions.len(), "unknown function");
        self.counters.submitted += 1;
        let Some(inv) = self.route(f) else {
            self.counters.rejected_503 += 1;
            notes.push(WhiskNote::Rejected503 {
                function: f,
                at: now,
            });
            return InvokeResult::Rejected503;
        };
        let act = ActivationId(self.records.len() as u64);
        let deadline = now + self.cfg.deadline;
        self.records.push(ActivationRecord {
            function: f,
            submitted: now,
            deadline,
            state: ActState::InFlight,
            assigned: Some(inv),
            attempts: 1,
        });
        self.deadline_queue.push_back((deadline, act));
        if let Some(i) = self.invokers.get_mut(&inv) {
            i.ctrl_inflight += 1;
        }
        let delay = self.cfg.jitter(self.cfg.ctrl_overhead, &mut self.rng)
            + self.cfg.jitter(self.cfg.kafka_delay, &mut self.rng);
        out.after(delay, WhiskEvent::Enqueue { act, inv });
        InvokeResult::Accepted(act)
    }

    /// OpenWhisk-style home-invoker routing: the function's hash picks a
    /// home position in the (sorted) routable list; linear probing finds
    /// a not-overloaded invoker, falling back to the home invoker.
    fn route(&self, f: FunctionId) -> Option<InvokerId> {
        if self.routable.is_empty() {
            return None;
        }
        let n = self.routable.len();
        let home = (stable_hash(f.0 as u64 + 1) % n as u64) as usize;
        for i in 0..n {
            let cand = self.routable[(home + i) % n];
            let inv = &self.invokers[&cand];
            if inv.ctrl_inflight < inv.pool.free_slots() + inv.pool.busy() {
                return Some(cand);
            }
        }
        Some(self.routable[home])
    }

    // ------------------------------------------------------------------
    // Invoker lifecycle API (driven by the pilot-job glue)
    // ------------------------------------------------------------------

    /// A warmed-up pilot registers its invoker; it becomes routable
    /// immediately.
    pub fn start_invoker(
        &mut self,
        now: SimTime,
        key: u64,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) -> InvokerId {
        let id = InvokerId(key);
        assert!(
            !self.invokers.contains_key(&id),
            "invoker {id} already registered"
        );
        let topic = self.broker.create_topic(&format!("invoker-{key}"));
        self.invokers.insert(
            id,
            Invoker::new(topic, self.cfg.container_slots, self.cfg.cold_concurrency),
        );
        let pos = self.routable.partition_point(|x| *x < id);
        self.routable.insert(pos, id);
        self.n_healthy += 1;
        self.push_series(now);
        notes.push(WhiskNote::InvokerUp(id));
        let d = self.cfg.jitter(self.cfg.poll_interval, &mut self.rng);
        out.after(d, WhiskEvent::InvokerPoll(id));
        id
    }

    /// SIGTERM: begin the drain protocol (§III-C).
    pub fn sigterm_invoker(
        &mut self,
        now: SimTime,
        id: InvokerId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        if self.cfg.mode == DynamicsMode::Baseline {
            // Stock OpenWhisk has no SIGTERM handling (§II): the invoker
            // keeps serving obliviously until SIGKILL; its queue is lost.
            return;
        }
        let Some(inv) = self.invokers.get_mut(&id) else {
            return;
        };
        if inv.state != InvokerState::Healthy {
            return;
        }
        inv.state = InvokerState::Draining;
        self.routable.retain(|x| *x != id);
        self.n_healthy -= 1;
        self.n_irresp += 1;
        self.push_series(now);
        notes.push(WhiskNote::InvokerDraining(id));

        // Controller half: move unpulled topic messages to the fast lane.
        let inv = self.invokers.get_mut(&id).expect("just checked");
        let topic = inv.topic;
        let buffered: Vec<ActivationId> = inv.buffer.drain(..).collect();
        // Sorted: `running` is a hash set, and the re-fire order below
        // decides the fast-lane order, which must not depend on the
        // set's per-instance hash keys.
        let mut running: Vec<ActivationId> = inv.running.iter().copied().collect();
        running.sort_unstable();
        let moved = self.broker.move_all(topic, self.fast_lane, now);
        self.counters.moved_to_fastlane += moved as u64;

        // Invoker half: flush the internal buffer.
        for act in buffered {
            if self.records[act.0 as usize].in_flight() {
                let submitted = self.records[act.0 as usize].submitted;
                self.records[act.0 as usize].attempts += 1;
                self.broker.produce(self.fast_lane, submitted, act);
                self.counters.refired += 1;
            }
        }
        // Interrupt running executions of interruptible functions and
        // re-route them too.
        for act in running {
            let f = self.records[act.0 as usize].function;
            if self.functions[f.0 as usize].interruptible {
                let inv = self.invokers.get_mut(&id).expect("draining");
                inv.running.remove(&act);
                inv.pool.abandon();
                if self.records[act.0 as usize].in_flight() {
                    let submitted = self.records[act.0 as usize].submitted;
                    self.records[act.0 as usize].attempts += 1;
                    self.broker.produce(self.fast_lane, submitted, act);
                    self.counters.refired += 1;
                }
            }
        }
        let d = self.cfg.jitter(self.cfg.drain_flush, &mut self.rng);
        out.after(d, WhiskEvent::DrainComplete(id));
    }

    /// Hard death: SIGKILL or node failure, no drain. In-buffer and
    /// running work is lost; the controller keeps routing to the corpse
    /// until the health timeout.
    pub fn kill_invoker(
        &mut self,
        now: SimTime,
        id: InvokerId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        let Some(inv) = self.invokers.get_mut(&id) else {
            return;
        };
        match inv.state {
            InvokerState::Healthy => {
                inv.state = InvokerState::DeadUnnoticed;
                inv.buffer.clear();
                inv.running.clear();
                self.counters.hard_deaths += 1;
                self.n_healthy -= 1;
                self.n_irresp += 1;
                self.push_series(now);
                out.after(self.cfg.health_timeout, WhiskEvent::DeathNoticed(id));
            }
            InvokerState::Draining => {
                // The controller already stopped routing; tear down now.
                self.counters.hard_deaths += 1;
                self.remove_invoker(now, id, false, notes);
            }
            InvokerState::DeadUnnoticed => {}
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Main event dispatch.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: WhiskEvent,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        match ev {
            WhiskEvent::Enqueue { act, inv } => self.on_enqueue(now, act, inv),
            WhiskEvent::InvokerPoll(id) => self.on_poll(now, id, out, notes),
            WhiskEvent::ColdStartDone { inv, act } => self.on_cold_done(now, inv, act, out),
            WhiskEvent::ExecDone { inv, act } => self.on_exec_done(now, inv, act, out, notes),
            WhiskEvent::DrainComplete(id) => {
                if self
                    .invokers
                    .get(&id)
                    .is_some_and(|i| i.state == InvokerState::Draining)
                {
                    self.counters.drains_clean += 1;
                    self.remove_invoker(now, id, true, notes);
                }
            }
            WhiskEvent::DeathNoticed(id) => {
                if self
                    .invokers
                    .get(&id)
                    .is_some_and(|i| i.state == InvokerState::DeadUnnoticed)
                {
                    self.routable.retain(|x| *x != id);
                    self.remove_invoker(now, id, false, notes);
                }
            }
            WhiskEvent::TimeoutScan => {
                while let Some((deadline, act)) = self.deadline_queue.front().copied() {
                    if deadline > now {
                        break;
                    }
                    self.deadline_queue.pop_front();
                    if self.records[act.0 as usize].in_flight() {
                        self.answer(now, act, Outcome::Timeout, notes);
                    }
                }
                out.after(self.cfg.timeout_scan_every, WhiskEvent::TimeoutScan);
            }
        }
    }

    fn on_enqueue(&mut self, _now: SimTime, act: ActivationId, inv: InvokerId) {
        if !self.records[act.0 as usize].in_flight() {
            return;
        }
        let submitted = self.records[act.0 as usize].submitted;
        match self.invokers.get(&inv) {
            Some(i) => {
                // Delivered even to a dead-unnoticed invoker's topic:
                // the controller does not know better yet.
                self.broker.produce(i.topic, submitted, act);
            }
            None => {
                // The chosen invoker de-registered in flight; the fast
                // lane guarantees any surviving invoker picks it up.
                self.broker.produce(self.fast_lane, submitted, act);
            }
        }
    }

    fn on_poll(
        &mut self,
        now: SimTime,
        id: InvokerId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        let Some(inv) = self.invokers.get_mut(&id) else {
            return; // gone — the poll loop dies with it
        };
        if inv.state != InvokerState::Healthy {
            return;
        }
        let room = self.cfg.buffer_max.saturating_sub(inv.buffer.len());
        if room > 0 {
            let topic = inv.topic;
            // Fast lane first (§III-C), own topic with the remainder.
            let fast = self.broker.fetch(self.fast_lane, room);
            let n_fast = fast.len();
            let own = self.broker.fetch(topic, room - n_fast);
            let inv = self.invokers.get_mut(&id).expect("still here");
            for m in fast {
                inv.buffer.push_back(m.payload);
                inv.ctrl_inflight += 1; // fast-lane work was unassigned
                self.records[m.payload.0 as usize].assigned = Some(id);
            }
            for m in own {
                inv.buffer.push_back(m.payload);
            }
        }
        self.dispatch(now, id, out, notes);
        let d = self.cfg.jitter(self.cfg.poll_interval, &mut self.rng);
        out.after(d, WhiskEvent::InvokerPoll(id));
    }

    /// Start buffered activations on containers until capacity runs out.
    fn dispatch(
        &mut self,
        now: SimTime,
        id: InvokerId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        loop {
            let Some(inv) = self.invokers.get_mut(&id) else {
                return;
            };
            if !inv.alive() {
                return;
            }
            let Some(&act) = inv.buffer.front() else {
                return;
            };
            if !self.records[act.0 as usize].in_flight() {
                // Timed out while queued; drop silently.
                inv.buffer.pop_front();
                inv.ctrl_inflight = inv.ctrl_inflight.saturating_sub(1);
                continue;
            }
            let f = self.records[act.0 as usize].function;
            match inv.pool.acquire(f, now) {
                Acquire::Warm => {
                    inv.buffer.pop_front();
                    inv.running.insert(act);
                    self.counters.warm_starts += 1;
                    let service = self.functions[f.0 as usize]
                        .exec
                        .service_time(self.speed_factor);
                    let d = self.cfg.jitter(self.cfg.dispatch, &mut self.rng) + service;
                    out.after(d, WhiskEvent::ExecDone { inv: id, act });
                }
                Acquire::Cold => {
                    inv.buffer.pop_front();
                    inv.running.insert(act);
                    self.counters.cold_starts += 1;
                    let d = self.cfg.jitter(self.cfg.cold_start, &mut self.rng);
                    out.after(d, WhiskEvent::ColdStartDone { inv: id, act });
                }
                Acquire::ColdBlocked => {
                    // Containers are booting as fast as the node allows.
                    // Under moderate pressure the request just waits; a
                    // badly backed-up buffer means the node is thrashing
                    // (the paper's container-limit failure window, §V-C)
                    // and container creation starts failing.
                    if inv.buffer.len() >= self.cfg.buffer_max / 2 {
                        inv.buffer.pop_front();
                        inv.ctrl_inflight = inv.ctrl_inflight.saturating_sub(1);
                        self.answer(now, act, Outcome::Failed, notes);
                    } else {
                        return;
                    }
                }
                Acquire::NoCapacity => return,
            }
        }
    }

    fn on_cold_done(
        &mut self,
        _now: SimTime,
        id: InvokerId,
        act: ActivationId,
        out: &mut Outbox<WhiskEvent>,
    ) {
        let Some(inv) = self.invokers.get_mut(&id) else {
            return;
        };
        if !inv.alive() {
            return;
        }
        inv.pool.cold_done();
        if !inv.running.contains(&act) {
            return; // aborted during drain
        }
        let f = self.records[act.0 as usize].function;
        let service = self.functions[f.0 as usize]
            .exec
            .service_time(self.speed_factor);
        let d = self.cfg.jitter(self.cfg.dispatch, &mut self.rng) + service;
        out.after(d, WhiskEvent::ExecDone { inv: id, act });
    }

    fn on_exec_done(
        &mut self,
        now: SimTime,
        id: InvokerId,
        act: ActivationId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        let Some(inv) = self.invokers.get_mut(&id) else {
            return;
        };
        if !inv.running.remove(&act) {
            return; // re-routed or invoker died meanwhile
        }
        let f = self.records[act.0 as usize].function;
        inv.pool.release(f, now);
        inv.ctrl_inflight = inv.ctrl_inflight.saturating_sub(1);
        if self.records[act.0 as usize].in_flight() {
            self.answer(now, act, Outcome::Success, notes);
        }
        // A slot freed: start the next buffered activation immediately.
        self.dispatch(now, id, out, notes);
    }

    /// Mark an activation answered and emit its note.
    fn answer(
        &mut self,
        now: SimTime,
        act: ActivationId,
        outcome: Outcome,
        notes: &mut Vec<WhiskNote>,
    ) {
        let rtt = self.cfg.jitter(self.cfg.client_rtt, &mut self.rng);
        let result_path = match outcome {
            Outcome::Success => self.cfg.jitter(self.cfg.result_path, &mut self.rng),
            _ => simcore::SimDuration::ZERO,
        };
        let r = &mut self.records[act.0 as usize];
        debug_assert!(r.in_flight());
        r.state = ActState::Answered(outcome);
        match outcome {
            Outcome::Success => self.counters.success += 1,
            Outcome::Failed => self.counters.failed += 1,
            Outcome::Timeout => self.counters.timeout += 1,
        }
        notes.push(WhiskNote::ActivationDone {
            act,
            function: r.function,
            outcome,
            submitted: r.submitted,
            answered: now + result_path + rtt,
            attempts: r.attempts,
        });
    }

    fn remove_invoker(
        &mut self,
        now: SimTime,
        id: InvokerId,
        clean: bool,
        notes: &mut Vec<WhiskNote>,
    ) {
        let inv = self.invokers.remove(&id).expect("removing unknown invoker");
        // Catch stragglers delivered after the drain's move_all.
        let leftovers = self.broker.depth(inv.topic);
        if leftovers > 0 {
            match self.cfg.mode {
                DynamicsMode::HpcWhisk => {
                    let n = self.broker.move_all(inv.topic, self.fast_lane, now);
                    if clean {
                        self.counters.moved_to_fastlane += n as u64;
                    } else {
                        self.counters.recovered_after_death += n as u64;
                    }
                }
                DynamicsMode::Baseline => {
                    let orphans = self.broker.delete_topic(inv.topic);
                    self.counters.dropped_after_death += orphans.len() as u64;
                }
            }
        }
        if self.broker.is_live(inv.topic) {
            self.broker.delete_topic(inv.topic);
        }
        self.n_irresp -= 1;
        self.push_series(now);
        notes.push(WhiskNote::InvokerGone { inv: id, clean });
    }

    fn push_series(&mut self, now: SimTime) {
        self.series.healthy.set(now, self.n_healthy as f64);
        self.series.irresp.set(now, self.n_irresp as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FunctionSpec;
    use simcore::SimDuration;

    fn sys() -> WhiskSys {
        WhiskSys::new(WhiskConfig::default(), 1)
    }

    #[test]
    fn function_registration_assigns_sequential_ids() {
        let mut s = sys();
        let a = s.register_function(FunctionSpec::sleep("a", SimDuration::from_millis(1)));
        let b = s.register_function(FunctionSpec::sleep("b", SimDuration::from_millis(1)));
        assert_eq!(a, FunctionId(0));
        assert_eq!(b, FunctionId(1));
        assert_eq!(s.n_functions(), 2);
    }

    #[test]
    fn routing_is_stable_for_a_fixed_healthy_set() {
        let mut s = sys();
        let f = s.register_function(FunctionSpec::sleep("f", SimDuration::from_millis(1)));
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        for k in 0..5 {
            s.start_invoker(SimTime::ZERO, k, &mut out, &mut notes);
        }
        let first = s.route(f).unwrap();
        for _ in 0..20 {
            assert_eq!(s.route(f), Some(first), "same home while set unchanged");
        }
    }

    #[test]
    fn routing_spreads_distinct_functions() {
        let mut s = sys();
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        for k in 0..8 {
            s.start_invoker(SimTime::ZERO, k, &mut out, &mut notes);
        }
        let mut homes = std::collections::HashSet::new();
        for i in 0..64 {
            let f = s.register_function(FunctionSpec::sleep(
                &format!("f{i}"),
                SimDuration::from_millis(1),
            ));
            homes.insert(s.route(f).unwrap());
        }
        assert!(
            homes.len() >= 5,
            "64 functions spread over 8 invokers: {homes:?}"
        );
    }

    #[test]
    fn sigterm_unknown_or_double_is_harmless() {
        let mut s = sys();
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        s.sigterm_invoker(SimTime::ZERO, InvokerId(9), &mut out, &mut notes);
        assert!(notes.is_empty());
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut notes);
        notes.clear();
        s.sigterm_invoker(SimTime::from_secs(1), InvokerId(1), &mut out, &mut notes);
        assert_eq!(notes.len(), 1);
        notes.clear();
        // Second SIGTERM: no double drain.
        s.sigterm_invoker(SimTime::from_secs(2), InvokerId(1), &mut out, &mut notes);
        assert!(notes.is_empty());
    }

    #[test]
    #[should_panic]
    fn duplicate_invoker_key_rejected() {
        let mut s = sys();
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut notes);
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut notes);
    }

    #[test]
    fn kill_while_draining_tears_down_immediately() {
        let mut s = sys();
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut notes);
        s.sigterm_invoker(SimTime::from_secs(1), InvokerId(1), &mut out, &mut notes);
        notes.clear();
        s.kill_invoker(SimTime::from_secs(2), InvokerId(1), &mut out, &mut notes);
        assert!(matches!(
            notes.as_slice(),
            [WhiskNote::InvokerGone { clean: false, .. }]
        ));
        assert_eq!(s.n_healthy(), 0);
        assert_eq!(s.counters().hard_deaths, 1);
    }
}
