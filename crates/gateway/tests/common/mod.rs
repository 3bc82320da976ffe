//! Helpers shared by the gateway integration tests.

use gateway::{Collector, Completion, Gateway};
use std::time::Duration;

/// Collect exactly `n` completions through `col`. Fails the test if a
/// 10 s wait sees nothing, or if the sweeps turn up more than `n` (a
/// completion nobody was waiting for).
pub fn collect_n(gw: &Gateway, col: &mut Collector, n: usize) -> Vec<Completion> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let got = gw.collect_wait(col, &mut out, Duration::from_secs(10));
        assert!(got > 0, "no completion within 10s ({}/{n})", out.len());
    }
    assert_eq!(out.len(), n, "more completions than expected");
    out
}
