//! The HPC-Whisk benchmark: both planes end to end, one workload per
//! run, with a separate traced run for the per-layer numbers.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and prints every end-to-end
//! metric. `--trace 1` runs it untraced in a child process, then traced
//! in this one, and prints every per-layer metric: span call counts and
//! self time, the layers' own counters, the tracing overhead (traced
//! minus untraced) and, on the DES days, how many `DayReport` counters
//! differ between the two processes. The last line of standard output
//! is the JSON result; the exit code is nonzero when an output check
//! failed. See `README.md` for the workloads and the layer map.

mod des;
mod openloop;
mod out;
mod serve;
mod speed;
mod stats;
mod trace;

use out::{Machine, Values, END_TO_END, PER_LAYER};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: &[&str] = &["des_days", "noop_flat", "sleep_open", "elastic_diurnal"];

/// The cause of the cross-process `DayReport` differences, named next
/// to `des.report_mismatches` wherever it is reported.
const MISMATCH_CAUSE: &str = "iteration order of the per-process-seeded HashSet \
     whisk::Invoker::running, iterated when WhiskSys drains an invoker \
     (crates/whisk/src/system.rs)";

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metric values.
    pub e2e: Values,
    /// Per-layer readings made by the workload itself.
    pub layer: Values,
    /// Operations attempted and failed (shed or lost requests; for the
    /// DES days, day reproductions whose checks failed).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Counters two runs of the same input must agree on.
    pub fingerprint: Vec<(String, u64)>,
    /// A time-like figure (larger is worse) the tracing overhead is
    /// measured on.
    pub cost: f64,
    /// Sample count behind `lat_p50_ms`/`lat_p90_ms`.
    pub lat_samples: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: print machine-readable lines for a parent process.
    emit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        emit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--emit" => a.emit = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Run one pass of `workload`, noting how much CPU time the hypervisor
/// stole meanwhile (a noisy host shows here before it shows anywhere
/// else).
fn run_pass(workload: &str, seed: u64, seconds: f64, tr: Option<&mut Tracer>) -> Outcome {
    let ticks = out::cpu_ticks();
    let mut o = match workload {
        "des_days" => des::run(seed, seconds, tr),
        "noop_flat" => serve::noop_flat(seed, seconds, tr),
        "sleep_open" => serve::sleep_open(seed, seconds, tr),
        "elastic_diurnal" => serve::elastic_diurnal(seed, seconds, tr),
        _ => unreachable!("workload names are checked when parsed"),
    };
    let steal = out::steal_pct(ticks, out::cpu_ticks());
    o.layer.set("machine.steal_pct", steal);
    o.notes.push(format!(
        "machine: {steal:.2}% of CPU time stolen by the host during the run"
    ));
    o
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let machine = Machine::read();
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# machine: nproc={} cpu=\"{}\" loadavg_1m={}",
        machine.nproc, machine.cpu, machine.loadavg_1m
    );
    let ok = if args.trace {
        traced(&args, &machine)
    } else {
        untraced(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced run: every end-to-end metric.
fn untraced(args: &Args) -> bool {
    let mut o = run_pass(&args.workload, args.seed, args.seconds, None);
    o.e2e.set("peak_rss_mb", out::peak_rss_mb());
    check_metrics(END_TO_END, &o.e2e, &mut o.failures);
    if o.lat_samples == 0 {
        o.failures
            .push("lat_p50_ms and lat_p90_ms have no samples".into());
    }
    for n in &o.notes {
        println!("# {n}");
    }
    for f in &o.failures {
        println!("# CHECK FAILED: {f}");
    }
    for (name, unit) in END_TO_END {
        let v = o.e2e.get(name).unwrap_or(0.0);
        let n = match *name {
            "lat_p50_ms" | "lat_p90_ms" => format!(" (n={})", o.lat_samples),
            _ => String::new(),
        };
        println!("# {name} = {v} {unit}{n}");
    }
    let ok = o.failures.is_empty();
    if args.emit {
        // Machine-readable lines for the traced run's parent.
        println!("cost\t{:?}", o.cost);
        for (k, v) in &o.fingerprint {
            println!("fp\t{k}\t{v}");
        }
        println!("ok\t{}", u8::from(ok));
    }
    println!(
        "{}",
        out::result_json(ok, o.attempted, o.failed, END_TO_END, &o.e2e)
    );
    ok
}

/// What the untraced child reported back.
#[derive(Default)]
struct ChildReport {
    cost: f64,
    fingerprint: Vec<(String, u64)>,
    ok: bool,
}

/// Run the untraced pass in a child process (its own hash seeds, so the
/// `DayReport` comparison is a cross-process one) and read its report.
fn untraced_child(args: &Args) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--emit",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn untraced run: {e}"))?;
    let mut rep = ChildReport::default();
    let stdout = child.stdout.take().expect("piped stdout");
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read untraced run: {e}"))?;
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["cost", v] => rep.cost = v.parse().unwrap_or(f64::NAN),
            ["fp", k, v] => rep
                .fingerprint
                .push((k.to_string(), v.parse().unwrap_or(0))),
            ["ok", v] => rep.ok = *v == "1",
            _ if line.starts_with("# ") => println!("# untraced: {}", &line[2..]),
            _ => {}
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("wait untraced run: {e}"))?;
    if !status.success() {
        rep.ok = false;
    }
    Ok(rep)
}

/// The traced run: per-layer metrics from spans around every call the
/// benchmark makes into a layer, plus the overhead against an untraced
/// run.
fn traced(args: &Args, machine: &Machine) -> bool {
    let child = match untraced_child(args) {
        Ok(c) => c,
        Err(e) => {
            println!("# CHECK FAILED: {e}");
            ChildReport::default()
        }
    };
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let o = run_pass(&args.workload, args.seed, args.seconds, Some(&mut tr));
    let mut l = o.layer.clone();
    l.set("input.seed", args.seed as f64);
    l.set("machine.nproc", machine.nproc as f64);
    l.set("machine.loadavg_1m", machine.loadavg_1m);
    l.set("trace.spans", tr.spans().len() as f64);
    l.set(
        "trace.overhead_pct",
        100.0 * (o.cost - child.cost) / child.cost,
    );
    let totals = tr.totals();
    for (name, _) in PER_LAYER {
        let Some(site) = name.strip_prefix("span.") else {
            continue;
        };
        if let Some(site) = site.strip_suffix(".calls") {
            let calls = totals.get(site).map_or(0, |t| t.calls);
            l.set(name, calls as f64);
        } else if let Some(site) = site.strip_suffix(".self_us") {
            let us = totals.get(site).map_or(0.0, |t| t.self_us_per_call());
            l.set(name, us);
        }
    }
    let mut failures = o.failures.clone();
    if !child.ok {
        failures.push("the untraced run failed its checks".into());
    }
    if !(child.cost.is_finite() && child.cost > 0.0) {
        failures.push(format!(
            "the untraced run reported no cost ({}), so trace.overhead_pct has no base",
            child.cost
        ));
    }
    check_metrics(PER_LAYER, &l, &mut failures);
    if !o.fingerprint.is_empty() {
        let mismatches = count_mismatches(&child.fingerprint, &o.fingerprint);
        l.set("des.report_mismatches", mismatches as f64);
        println!(
            "# des.report_mismatches = {mismatches} of {} DayReport counters differ between the untraced and the traced process; cause: {MISMATCH_CAUSE}",
            o.fingerprint.len()
        );
    }
    for n in &o.notes {
        println!("# {n}");
    }
    for f in &failures {
        println!("# CHECK FAILED: {f}");
    }
    for (site, t) in &totals {
        println!(
            "# span {site}: {} calls, {} recorded, self {:.3} us/call, total {:.0} ns/call",
            t.calls,
            t.recorded,
            t.self_us_per_call(),
            t.total_ns_per_call()
        );
    }
    if let Err(e) = write_spans(args, machine, &tr) {
        println!("# spans not written: {e}");
    }
    let ok = failures.is_empty();
    println!(
        "{}",
        out::result_json(ok, o.attempted, o.failed, PER_LAYER, &l)
    );
    ok
}

/// Fail every metric of `catalogue` that is set to a non-finite value;
/// for the end-to-end catalogue also every metric left unset. The result
/// line cannot carry such a value, and printing it as 0 would read as a
/// gain on a lower-is-better metric.
fn check_metrics(catalogue: &[(&str, &str)], values: &Values, failures: &mut Vec<String>) {
    let required = std::ptr::eq(catalogue, END_TO_END);
    for (name, _) in catalogue {
        match values.get(name) {
            Some(v) if !v.is_finite() => failures.push(format!("{name} is {v}")),
            None if required => failures.push(format!("{name} was not measured")),
            _ => {}
        }
    }
}

/// Counters that differ between two fingerprints of the same day.
fn count_mismatches(a: &[(String, u64)], b: &[(String, u64)]) -> usize {
    let lookup = |k: &str| a.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    b.iter().filter(|(k, v)| lookup(k) != Some(*v)).count()
}

/// Write the traced run's spans under `.bench_out/` in the working
/// directory.
fn write_spans(args: &Args, machine: &Machine, tr: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tr.write_tsv(
        &mut w,
        &format!(
            "workload={} seed={} seconds={} nproc={} cpu=\"{}\" loadavg_1m={}",
            args.workload, args.seed, args.seconds, machine.nproc, machine.cpu, machine.loadavg_1m
        ),
    )?;
    w.flush()?;
    println!("# spans written to {}", path.display());
    Ok(())
}

/// Run every workload, each in its own process, and pass their output
/// through. Fails when any workload's checks fail.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_and_missing_metrics_fail() {
        let mut v = Values::default();
        for (name, _) in END_TO_END {
            v.set(name, 1.0);
        }
        let mut failures = Vec::new();
        check_metrics(END_TO_END, &v, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        v.set("ops_per_s", f64::INFINITY);
        v.set("lat_p50_ms", f64::NAN);
        check_metrics(END_TO_END, &v, &mut failures);
        assert_eq!(failures.len(), 2, "{failures:?}");
        // Per-layer metrics a workload never sets read 0 and pass.
        let mut failures = Vec::new();
        check_metrics(PER_LAYER, &Values::default(), &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        let mut failures = Vec::new();
        check_metrics(END_TO_END, &Values::default(), &mut failures);
        assert_eq!(failures.len(), END_TO_END.len());
    }

    #[test]
    fn mismatches_count_differing_and_missing_counters() {
        let a = vec![("x".to_string(), 1), ("y".to_string(), 2)];
        let b = vec![
            ("x".to_string(), 1),
            ("y".to_string(), 3),
            ("z".to_string(), 0),
        ];
        assert_eq!(count_mismatches(&a, &b), 2);
        assert_eq!(count_mismatches(&a, &a), 0);
    }
}
