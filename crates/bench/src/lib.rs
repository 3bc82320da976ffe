//! # hpcwhisk-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index), plus shared
//! reporting utilities. Each binary prints the paper-shaped artifact
//! followed by a paper-vs-measured comparison table.
//!
//! Binaries accept `--quick` to run a scaled-down configuration (fewer
//! nodes / shorter horizon) for smoke testing.

use metrics::Table;

/// A paper-vs-measured comparison accumulator.
#[derive(Debug, Default)]
pub struct Comparison {
    rows: Vec<(String, String, String)>,
}

impl Comparison {
    /// Empty comparison.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a numeric row; the rendering includes the measured/paper
    /// ratio so shape deviations are visible at a glance.
    pub fn add(&mut self, label: &str, paper: f64, measured: f64) -> &mut Self {
        let ratio = if paper.abs() > 1e-12 {
            format!("{:.2}", measured / paper)
        } else {
            "-".to_string()
        };
        self.rows.push((
            label.to_string(),
            format!("{paper:.2}"),
            format!("{measured:.2} (x{ratio})"),
        ));
        self
    }

    /// Add a free-form row.
    pub fn add_str(&mut self, label: &str, paper: &str, measured: &str) -> &mut Self {
        self.rows
            .push((label.to_string(), paper.to_string(), measured.to_string()));
        self
    }

    /// Render the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["Metric", "Paper", "Measured"]);
        for (l, p, m) in &self.rows {
            t.row(&[l.clone(), p.clone(), m.clone()]);
        }
        t.render()
    }
}

/// True if `--quick` was passed (scaled-down smoke run).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Value following `--flag` on the command line, if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Honor `--metrics-out <path>`: scrape the gateway's telemetry
/// registry and write the Prometheus text exposition to the path.
/// No-op when the flag is absent; call before `shutdown` teardown while
/// the gateway still owns its registry.
pub fn write_metrics_out(gw: &gateway::Gateway) {
    let Some(path) = arg_value("--metrics-out") else {
        return;
    };
    let Some(telem) = gw.telemetry() else {
        eprintln!("--metrics-out: gateway telemetry is disabled; nothing to write");
        return;
    };
    let text = metrics::telemetry::render_prometheus(&telem.registry().snapshot());
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("--metrics-out {path}: {e}"));
    println!("metrics exposition written to {path}");
}

/// Honor `--metrics-out <path>` for scheduler-plane binaries: render
/// the pass counters as a Prometheus exposition (see
/// [`scheduler_exposition`]) and write it to the path.
pub fn write_scheduler_metrics_out(c: &cluster::Counters) {
    let Some(path) = arg_value("--metrics-out") else {
        return;
    };
    std::fs::write(&path, scheduler_exposition(c))
        .unwrap_or_else(|e| panic!("--metrics-out {path}: {e}"));
    println!("metrics exposition written to {path}");
}

/// Render `cluster::Counters` as Prometheus text through a one-shot
/// telemetry registry — the scheduler plane's equivalent of scraping
/// the gateway's live registry. Span families read zero unless the run
/// called `ClusterSim::enable_pass_spans`.
pub fn scheduler_exposition(c: &cluster::Counters) -> String {
    use metrics::telemetry::{labels, render_prometheus, Collected, Labels, MetricKind, Registry};
    let reg = Registry::new();
    let counter = |name: &str, help: &str, rows: Vec<(Labels, u64)>| {
        let collect = move || {
            rows.iter()
                .map(|(l, v)| (l.clone(), Collected::Counter(*v)))
                .collect::<Vec<_>>()
        };
        reg.register(name, help, MetricKind::Counter, Box::new(collect));
    };
    counter(
        "scheduler_passes_total",
        "scheduling passes by mode (epoch-skipped quick passes split out)",
        vec![
            (labels(&[("mode", "quick")]), c.quick_passes),
            (labels(&[("mode", "quick_skipped")]), c.quick_passes_skipped),
            (labels(&[("mode", "backfill")]), c.backfill_passes),
        ],
    );
    counter(
        "scheduler_jobs_total",
        "job lifecycle events by kind",
        vec![
            (
                labels(&[("kind", "hpc"), ("event", "started")]),
                c.hpc_started,
            ),
            (
                labels(&[("kind", "hpc"), ("event", "completed")]),
                c.hpc_completed,
            ),
            (
                labels(&[("kind", "pilot"), ("event", "started")]),
                c.pilots_started,
            ),
            (
                labels(&[("kind", "pilot"), ("event", "preempted")]),
                c.pilots_preempted,
            ),
            (
                labels(&[("kind", "pilot"), ("event", "timed_out")]),
                c.pilots_timed_out,
            ),
            (
                labels(&[("kind", "pilot"), ("event", "node_failed")]),
                c.pilots_node_failed,
            ),
        ],
    );
    counter(
        "scheduler_reservations_total",
        "future-start reservations created",
        vec![(labels(&[]), c.reservations_made)],
    );
    counter(
        "scheduler_pass_placements_total",
        "starts plus reservations made by passes",
        vec![(labels(&[]), c.pass_placements)],
    );
    counter(
        "scheduler_wheel_nodes_reprojected_total",
        "nodes re-masked by the residue-wheel sweep (crossing-proportional witness)",
        vec![(labels(&[]), c.wheel_nodes_reprojected)],
    );
    counter(
        "scheduler_pass_span_ns_total",
        "per-phase pass wall-clock, when pass spans are enabled",
        vec![
            (labels(&[("phase", "rebase")]), c.span_rebase_ns),
            (labels(&[("phase", "wheel")]), c.span_wheel_ns),
            (labels(&[("phase", "dirty")]), c.span_dirty_ns),
            (labels(&[("phase", "placement")]), c.span_placement_ns),
        ],
    );
    render_prometheus(&reg.snapshot())
}

/// Print a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

/// The scheduler bench fixture: a 2,239-node cluster, ~95% occupied by
/// pinned HPC demand, with a full fib pilot queue waiting — the shape
/// both `benches/scheduler.rs` and the `perf_trajectory` scheduler
/// probes time passes on.
pub fn loaded_cluster() -> cluster::ClusterSim {
    use cluster::{ClusterSim, JobSpec, NodeId, SlurmConfig};
    use hpcwhisk_core::{lengths, FibManager, PilotManager};
    use simcore::{Outbox, SimDuration, SimTime};
    let mut sim = ClusterSim::new(SlurmConfig::default(), 2_239, 1);
    let mut out = Outbox::new(SimTime::ZERO);
    let mut notes = Vec::new();
    // Occupy most nodes with pinned demand.
    for n in 0..2_128u32 {
        sim.force_start(
            SimTime::ZERO,
            JobSpec::pinned_demand(
                vec![NodeId(n)],
                SimTime::ZERO,
                SimTime::ZERO,
                SimDuration::from_hours(8),
                SimDuration::from_hours(7),
            ),
            &mut out,
            &mut notes,
        );
    }
    // Fill the pilot queue the way the fib manager would.
    let mut mgr = FibManager::paper(lengths::A1.to_vec());
    for spec in mgr.replenish(&sim) {
        sim.submit(SimTime::ZERO, spec, &mut out);
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_renders_ratio() {
        let mut c = Comparison::new();
        c.add("coverage %", 90.0, 87.3);
        c.add_str("who wins", "fib", "fib");
        let s = c.render();
        assert!(s.contains("coverage %"));
        assert!(s.contains("87.30 (x0.97)"));
        assert!(s.contains("fib"));
    }

    #[test]
    fn comparison_handles_zero_paper_value() {
        let mut c = Comparison::new();
        c.add("zero", 0.0, 1.0);
        assert!(c.render().contains("-"));
    }
}
