//! Concurrent-collector regression tests for the lock-free completion
//! plane: any number of collectors may sweep the shard table at once,
//! and **every accepted request is observed exactly once across all of
//! them**.

use gateway::{ActionId, ActionSpec, Completion, Gateway, GatewayConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn plane(invokers: usize, actions: usize) -> Gateway {
    let gw = Gateway::new(
        GatewayConfig::default(),
        (0..actions)
            .map(|i| ActionSpec::noop(&format!("fn-{i}")))
            .collect(),
    );
    for _ in 0..invokers {
        gw.start_invoker();
    }
    gw
}

/// Four collectors racing over a live plane, two parked on the blocking
/// `collect_wait` and two spinning on the non-blocking
/// `collect_completions_with`: the union of everything observed is
/// exactly the accepted id set — nothing lost, nothing duplicated.
#[test]
fn concurrent_collectors_lose_and_duplicate_nothing() {
    let gw = plane(4, 8);
    const N: u64 = 20_000;
    const COLLECTORS: usize = 4;
    let done = AtomicBool::new(false);
    let collected = AtomicUsize::new(0);

    let (submitted, per_collector) = std::thread::scope(|s| {
        let gw = &gw;
        let done = &done;
        let collected = &collected;
        let handles: Vec<_> = (0..COLLECTORS)
            .map(|i| {
                let blocking = i % 2 == 0;
                s.spawn(move || {
                    let mut col = gw.collector();
                    let mut buf: Vec<Completion> = Vec::new();
                    let mut ids: Vec<u64> = Vec::new();
                    let mut spin = 0u32;
                    loop {
                        buf.clear();
                        let got = if blocking {
                            gw.collect_wait(&mut col, &mut buf, Duration::from_millis(1))
                        } else {
                            gw.collect_completions_with(&mut col, &mut buf)
                        };
                        ids.extend(buf.iter().map(|c| c.id));
                        collected.fetch_add(got, Ordering::Relaxed);
                        if got == 0 {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                            spin += 1;
                            if spin.is_multiple_of(8) {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                        } else {
                            spin = 0;
                        }
                    }
                    ids
                })
            })
            .collect();

        let mut submitted: HashSet<u64> = HashSet::new();
        for i in 0..N {
            let admit = gw
                .invoke(ActionId((i % 8) as u32), i)
                .expect("noop actions never shed");
            assert!(submitted.insert(admit.id), "admit ids must be unique");
        }
        // All accepted: wait for the collectors to account for every one
        // of them, then release them.
        let t = Instant::now();
        while collected.load(Ordering::Relaxed) < submitted.len() {
            assert!(
                t.elapsed() < Duration::from_secs(30),
                "collectors starved: {}/{} after {:?}",
                collected.load(Ordering::Relaxed),
                submitted.len(),
                t.elapsed()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        done.store(true, Ordering::Release);
        let per_collector: Vec<Vec<u64>> = handles
            .into_iter()
            .map(|h| h.join().expect("collector"))
            .collect();
        (submitted, per_collector)
    });

    let mut union: HashSet<u64> = HashSet::new();
    for ids in &per_collector {
        for id in ids {
            assert!(union.insert(*id), "completion {id} collected twice");
        }
    }
    assert_eq!(union, submitted, "a completion was lost");
    assert_eq!(gw.shutdown(), 0);
}
