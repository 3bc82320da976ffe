//! The metric catalogue and the result line.
//!
//! Every workload reports every end-to-end metric (untraced run) and
//! every per-layer metric (traced run). A per-layer metric of a layer
//! the workload never calls reads 0. `BENCHMARK.json` at the repository
//! root lists the same names; a test keeps the two in step.

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics: name, unit. Their meaning on each workload is
/// stated in `README.md` next to this crate.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "ops/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("served_pct", "%"),
];

/// Per-layer metrics: name, unit. Readings of one paper day carry the
/// day as a suffix (`.fib`, `.var`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Run context.
    ("input.seed", "count"),
    ("input.trace_intervals", "count"),
    ("input.arrivals", "count"),
    ("machine.nproc", "count"),
    ("machine.loadavg_1m", "load"),
    ("machine.steal_pct", "%"),
    ("machine.kernel_us", "us/call"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    // Span call counts and self time, one pair per call site.
    ("span.workload.generate.calls", "count"),
    ("span.workload.generate.self_us", "us/call"),
    ("span.workload.claims_for.calls", "count"),
    ("span.workload.claims_for.self_us", "us/call"),
    ("span.core.run_day.calls", "count"),
    ("span.core.run_day.self_us", "us/call"),
    ("span.core.simulation.calls", "count"),
    ("span.core.simulation.self_us", "us/call"),
    ("span.core.report.calls", "count"),
    ("span.core.report.self_us", "us/call"),
    ("span.gateway.invoke_burst.calls", "count"),
    ("span.gateway.invoke_burst.self_us", "us/call"),
    ("span.gateway.collect.calls", "count"),
    ("span.gateway.collect.self_us", "us/call"),
    ("span.controller.poll.calls", "count"),
    ("span.controller.poll.self_us", "us/call"),
    ("span.client.turn.calls", "count"),
    ("span.client.turn.self_us", "us/call"),
    ("span.request.calls", "count"),
    ("span.request.self_us", "us/call"),
    ("span.ring.queue_wait.calls", "count"),
    ("span.ring.queue_wait.self_us", "us/call"),
    ("span.pool.service.calls", "count"),
    ("span.pool.service.self_us", "us/call"),
    // workload (trace generation is set-up; claims are run_day's bootstrap)
    ("workload.trace_gen_ms.fib", "ms/call"),
    ("workload.trace_gen_ms.var", "ms/call"),
    ("workload.claims_ms.fib", "ms/call"),
    ("workload.claims_ms.var", "ms/call"),
    // core
    ("core.run_day_s.fib", "s/day"),
    ("core.run_day_s.var", "s/day"),
    ("core.offline_ms.fib", "ms/day"),
    ("core.offline_ms.var", "ms/day"),
    ("core.report_ms.fib", "ms/day"),
    ("core.report_ms.var", "ms/day"),
    ("des.report_mismatches", "count"),
    ("des.in_flight_at_horizon.fib", "count"),
    ("des.in_flight_at_horizon.var", "count"),
    // cluster (DayReport::cluster_counters)
    ("cluster.passes.quick.fib", "count"),
    ("cluster.passes.quick.var", "count"),
    ("cluster.passes.quick_skipped.fib", "count"),
    ("cluster.passes.quick_skipped.var", "count"),
    ("cluster.passes.backfill.fib", "count"),
    ("cluster.passes.backfill.var", "count"),
    ("cluster.placements.fib", "count"),
    ("cluster.placements.var", "count"),
    ("cluster.wheel_reprojected.fib", "count"),
    ("cluster.wheel_reprojected.var", "count"),
    ("cluster.pilots_started.fib", "count"),
    ("cluster.pilots_started.var", "count"),
    ("cluster.pilots_preempted.fib", "count"),
    ("cluster.pilots_preempted.var", "count"),
    ("cluster.us_per_pass.fib", "us/pass"),
    ("cluster.us_per_pass.var", "us/pass"),
    // whisk (DayReport::whisk_counters)
    ("whisk.activations.fib", "count"),
    ("whisk.activations.var", "count"),
    ("whisk.cold_starts.fib", "count"),
    ("whisk.cold_starts.var", "count"),
    ("whisk.warm_pct.fib", "%"),
    ("whisk.warm_pct.var", "%"),
    ("whisk.fastlane_moves.fib", "count"),
    ("whisk.fastlane_moves.var", "count"),
    ("whisk.refired.fib", "count"),
    ("whisk.refired.var", "count"),
    ("whisk.ns_per_activation.fib", "ns/op"),
    ("whisk.ns_per_activation.var", "ns/op"),
    // gateway submit and collect
    ("gateway.submit_ns_per_op", "ns/op"),
    ("gateway.collect_ns_per_completion", "ns/op"),
    ("gateway.collect_empty_pct", "%"),
    ("gateway.collect_lag_us.p50", "us/req"),
    ("gateway.window_full_pct", "%"),
    ("gateway.fastlane_moves_per_kop", "1/kop"),
    // ring, route, pool
    ("ring.queue_wait_us.p50", "us/req"),
    ("ring.queue_wait_us.p90", "us/req"),
    ("ring.wakes_per_kop", "1/kop"),
    ("ring.full_per_kop", "1/kop"),
    ("collect.claim_skips_per_kop", "1/kop"),
    ("route.max_invoker_share", "ratio"),
    ("pool.service_us.p50", "us/req"),
    ("pool.cold_pct", "%"),
    // open-loop generator health
    ("gen.late_us.p50", "us/req"),
    ("gen.late_us.p99", "us/req"),
    // controller, leases, pilots (core::live)
    ("controller.poll_us.p50", "us/call"),
    ("controller.poll_us.p99", "us/call"),
    ("lease.grants", "count"),
    ("lease.surprise_revokes", "count"),
    ("lease.deadline_drains", "count"),
    ("lease.feedbacks", "count"),
    ("lease.leased_node_s", "node-s"),
    ("pilot.submitted", "count"),
    ("pilot.cancelled", "count"),
    ("pilot.preemptions", "count"),
    // latency diagnostics: tails, high-rate readings, sample counts
    ("diag.lat_p99_ms", "ms/req"),
    ("diag.lat_p999_ms", "ms/req"),
    ("diag.lat_p50_ms.high", "ms/req"),
    ("diag.lat_p90_ms.high", "ms/req"),
    ("diag.lat_p99_ms.high", "ms/req"),
    ("samples.lat", "count"),
    ("samples.lat.high", "count"),
];

/// Metric values by catalogue name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set a metric; the name must be in the catalogue, so a typo in a
    /// workload fails loudly instead of reporting 0.
    pub fn set(&mut self, name: &str, v: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.0.insert(key, v);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Render the result line: `correct`, `attempted`, `failed` and every
/// metric of `catalogue` (0 for one the workload left unset).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU time of the calling thread so far (`CLOCK_THREAD_CPUTIME_ID`).
/// Unlike wall time it leaves out time the thread spent preempted or,
/// with paravirtual steal accounting, stolen by the hypervisor, so a
/// single-threaded CPU-bound step reads the same however busy the host
/// was meanwhile.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: std::ffi::c_long,
        nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs
    // on Linux) that outlives the call, and the clock id is a constant
    // every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// CPU time stolen by the hypervisor so far and all CPU time, in ticks
/// summed over CPUs (the `cpu` line of `/proc/stat`).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings (%).
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// The machine a result was measured on.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
    pub loadavg_1m: f64,
}

impl Machine {
    /// Read the processor count, CPU model and 1-minute load average.
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            loadavg_1m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and order `BENCHMARK.json` lists for one
    /// metric section.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the crate");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} section"));
        let body = &text[start..text[start..].find(']').map(|e| start + e).unwrap()];
        let field = |entry: &str, key: &str| {
            let k = entry.find(&format!("\"{key}\"")).unwrap();
            let rest = &entry[k + key.len() + 2..];
            let open = rest.find('"').unwrap() + 1;
            let close = open + rest[open..].find('"').unwrap();
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn owned(c: &[(&str, &str)]) -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn thread_cpu_counts_work_not_sleep() {
        let t0 = thread_cpu();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu() - t0;
        let t1 = thread_cpu();
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(spin.elapsed());
        }
        let worked = thread_cpu() - t1;
        assert!(slept < Duration::from_millis(5), "{slept:?}");
        assert!(worked > Duration::from_millis(5), "{worked:?}");
    }

    #[test]
    fn steal_share_of_all_ticks() {
        assert_eq!(steal_pct((10, 1_000), (30, 1_400)), 5.0);
        assert_eq!(steal_pct((10, 1_000), (10, 1_000)), 0.0);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_fail_loudly() {
        Values::default().set("lat_p50", 1.0);
    }

    #[test]
    fn result_line_lists_every_metric_with_full_digits() {
        let mut v = Values::default();
        v.set("setup_s", 0.123_456_789_012_345_6);
        let line = result_json(true, 5, 0, &END_TO_END[..2], &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.1234567890123456, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MiB\"}}}"
        );
    }
}
