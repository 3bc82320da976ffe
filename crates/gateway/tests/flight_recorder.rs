//! The flight recorder end to end: with the recorder enabled, a short
//! gateway run leaves cold-start / warm-hit / drain events in the
//! per-thread rings, and an injected exactly-once violation dumps that
//! ring — the black box a conservation failure is diagnosed from.

use gateway::{ActionId, ActionSpec, Gateway, GatewayConfig};
use std::collections::HashSet;
use std::time::Duration;
use telemetry::flight;

/// Single test (the recorder is process-global, so phases share one fn):
/// drive traffic, sigterm an invoker, then trip `flight::guard` on a
/// fabricated duplicate-completion count and inspect the dump.
#[test]
fn violation_dumps_recorded_ring() {
    flight::enable();
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![ActionSpec::noop("fn-0"), ActionSpec::noop("fn-1")],
    );
    let t1 = gw.start_invoker();
    let _t2 = gw.start_invoker();

    let mut ids = HashSet::new();
    for i in 0..64u64 {
        ids.insert(gw.invoke(ActionId((i % 2) as u32), i).expect("accepted").id);
    }
    // A drain mid-run so DrainStart/DrainFinish land in the ring too.
    assert!(gw.sigterm(t1));
    gw.join_invoker(t1);

    let mut seen = HashSet::new();
    let mut col = gw.collector();
    let mut buf = Vec::new();
    while seen.len() < ids.len() {
        buf.clear();
        let got = gw.collect_wait(&mut col, &mut buf, Duration::from_secs(10));
        assert!(got > 0, "completion within 10s");
        // The real exactly-once check, phrased through the guard: a
        // repeated completion id would dump the ring right here.
        for c in &buf {
            flight::guard(
                seen.insert(c.id),
                "completion id delivered exactly once per admitted request",
            );
        }
    }
    assert_eq!(seen, ids);
    assert_eq!(gw.shutdown(), 0);

    let events = flight::events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, flight::EventKind::ColdStart)),
        "first execution per (invoker, action) cold-starts"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, flight::EventKind::DrainStart)),
        "sigterm records a drain start"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, flight::EventKind::DrainFinish)),
        "drained invoker records a drain finish"
    );

    // Inject a violation: the guard must dump the ring before panicking.
    assert!(flight::last_dump().is_none(), "clean run leaves no dump");
    let err = std::panic::catch_unwind(|| {
        flight::guard(false, "injected: completions exceed admissions");
    })
    .expect_err("violated guard panics");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(msg.contains("injected: completions exceed admissions"));

    let dump = flight::last_dump().expect("violation stored a dump");
    assert!(dump.contains("injected: completions exceed admissions"));
    assert!(dump.contains("=== flight recorder"), "dump header present");
    assert!(
        dump.contains("cold_start") || dump.contains("warm_hit"),
        "dump shows execution events: {dump}"
    );
    flight::disable();
}
