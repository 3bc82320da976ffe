//! The live serving plane: run actual compute — the SeBS PageRank
//! kernel — through the sharded gateway on a **lease-driven** pool of
//! invoker threads. Capacity comes and goes the way the paper's does:
//! a `CapacityController` replays a lease plan (grants with deadlines,
//! a mid-burst revoke) while the request stream flows, and no
//! invocation is lost.
//!
//! This is the drain/fast-lane protocol of §III-C on OS threads and
//! queues rather than under the simulator's virtual clock, plus the
//! pieces the DES plane models analytically: warm-container pools with
//! cold starts, deadline-aware drains, admission control, and a
//! closed-loop load harness.
//!
//! Run with: `cargo run --release --example live_faas`

use hpc_whisk::gateway::{
    run_load, ActionBody, ActionId, ActionSpec, CapacityController, ControllerConfig, Gateway,
    GatewayConfig, HarnessConfig, LeaseEvent, LeaseEventKind, LeasePlan,
};
use hpc_whisk::sebs::{Graph, Kernel};
use hpc_whisk::simcore::SimDuration;
use hpc_whisk::workload::DiurnalLoadGen;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // Deploy "functions": PageRank on shared graphs of varying size,
    // each with a realistic cold-start penalty and keep-alive.
    let actions: Vec<ActionSpec> = (0..4u64)
        .map(|i| {
            let g = Arc::new(Graph::barabasi_albert(2_000 * (i as usize + 1), 3, i));
            ActionSpec::noop(&format!("pagerank-{}k", 2 * (i + 1)))
                .with_body(ActionBody::Kernel(Kernel::Pagerank, g))
                .with_cold_start(Duration::from_millis(5))
                .with_keepalive(Duration::from_secs(30))
        })
        .collect();
    let gw = Gateway::new(GatewayConfig::default(), actions);

    // The capacity plan: three pilot leases granted up front; node 1's
    // lease is revoked mid-burst (a prime HPC job reclaims it), the
    // other two run long enough to serve the whole demo.
    let grant = |node: u32, deadline_ms: u64| LeaseEvent {
        at: Duration::ZERO,
        node,
        kind: LeaseEventKind::Grant {
            deadline: Duration::from_millis(deadline_ms),
        },
    };
    let plan = LeasePlan {
        events: vec![
            grant(0, 60_000),
            grant(1, 60_000),
            grant(2, 60_000),
            LeaseEvent {
                at: Duration::from_millis(20),
                node: 1,
                kind: LeaseEventKind::Revoke,
            },
        ],
        horizon: Duration::from_secs(60),
        capped_grants: 0,
        floor: 0,
    };
    let t0 = Instant::now();
    let mut ctl = CapacityController::new(&gw, plan, ControllerConfig::default(), t0);
    ctl.poll(t0);
    println!(
        "granted {} pilot leases behind the sharded router",
        ctl.n_routable()
    );

    let n_requests = 120u64;
    let mut accepted = 0u64;
    for i in 0..n_requests {
        gw.invoke(ActionId((i % 4) as u32), i).expect("accepted");
        accepted += 1;
        if i == 40 {
            // Replay up to the revoke event: node 1's invoker drains
            // mid-burst and its backlog takes the fast lane.
            ctl.poll(t0 + Duration::from_millis(20));
            println!("lease on node 1 revoked after 40 submissions (node reclaimed)");
        }
    }

    let mut per_invoker = std::collections::BTreeMap::new();
    let mut cold = 0u64;
    let mut col = gw.collector();
    let mut done = Vec::new();
    while (done.len() as u64) < accepted {
        let got = gw.collect_wait(&mut col, &mut done, Duration::from_secs(60));
        assert!(got > 0, "no request may be lost");
    }
    for c in &done {
        *per_invoker.entry(c.invoker).or_insert(0u32) += 1;
        cold += c.cold as u64;
    }
    println!(
        "all {accepted} invocations completed in {:.2?} despite the revoke ({cold} cold starts)",
        t0.elapsed()
    );
    for (inv, n) in per_invoker {
        println!("  invoker {inv}: {n} executions");
    }

    // Second act: replay a compressed diurnal arrival process through
    // the closed-loop harness and report latency quantiles with the
    // per-action admitted/delayed/shed/lost breakdown.
    let arrivals = DiurnalLoadGen::new(50.0, 400.0, SimDuration::from_secs(4), 4)
        .arrivals(SimDuration::from_secs(4), 7);
    println!(
        "replaying a diurnal process: {} arrivals over 4 s (trough 50 qps, peak 400 qps)",
        arrivals.len()
    );
    let mut report = run_load(&gw, &arrivals, &HarnessConfig::default());
    println!("harness: {}", report.summary());
    assert_eq!(report.lost(), 0, "accepted requests are never lost");

    let stats = ctl.finish();
    println!(
        "controller: {} grants, {} revokes ({} surprise), {} deadline drains, {} reaped at finish",
        stats.grants,
        stats.revokes,
        stats.surprise_revokes,
        stats.deadline_drains,
        stats.reaped_at_finish
    );
    let stranded = gw.shutdown();
    let pools = gw.retired_pool_stats();
    assert!(pools.containers_conserved(), "container leak: {pools:?}");
    println!(
        "gateway shut down cleanly ({stranded} stranded, {} containers retired at drains)",
        pools.drain_retired
    );
}
