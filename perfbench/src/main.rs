//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload from the seed, drives it closed-loop through the
//! public front doors (`NetClient` → unix socket → `NetServer`, or
//! `Session` in process), checks every result, and prints each metric with
//! its unit.  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the traced pass and the layer
//! ledger and reports the per-layer metrics.  `--workload all` runs every
//! workload in turn, each ending in its own JSON line.  Exits non-zero if
//! any result is wrong.

mod drive;
mod env;
mod ledger;
mod mix;
mod tally;
mod trace;

use drive::{inproc_instance, setup_only, wire_instance, Load, LoopReport, ServerReport, OUT_DIR};
use mix::{Transport, Workload};
use rdx_net::DEFAULT_MAX_PAYLOAD;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use tally::{median, Tally, P90_MIN_SAMPLES};
use trace::{count_allocations, CountingAlloc, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A `--trace 0` run splits its measured loop over this many fresh
/// instances of the workload, each set up anew, so that set-up is sampled
/// all through the run rather than once before it.
const INSTANCES: usize = 5;

/// Set-up time a `--trace 0` run spends at least, spread pro rata over the
/// gaps between instances by repeating a fast set-up; `setup_s` is the
/// median of every set-up.
const SETUP_FLOOR_S: f64 = 1.0;

/// Length of the query sequence a run cycles through.
const SEQUENCE_LEN: usize = 48 * 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses the command line into one `Args` per workload to run
/// (`--workload all` runs every workload in turn).
fn parse_args() -> Result<Vec<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workloads = match name {
        "all" => mix::WORKLOADS.to_vec(),
        _ => vec![mix::find(name).ok_or_else(|| {
            let names: Vec<&str> = mix::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {names:?} or \"all\"")
        })?],
    };
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(workloads
        .into_iter()
        .map(|workload| Args {
            workload,
            seed,
            seconds,
            trace,
        })
        .collect())
}

/// One named metric with its unit.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

#[derive(Default)]
struct Output {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Output {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: Option<f64>) {
        let name = name.into();
        match value {
            Some(v) if v.is_finite() => self.metrics.push(Metric {
                name,
                unit,
                value: v,
            }),
            _ => self.notes.push(format!("{name}: not measured in this run")),
        }
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// One measured instance of the workload's closed loop.
struct Measured {
    setup_s: f64,
    rep: LoopReport,
    server: ServerReport,
    tenants: Vec<drive::Tenant>,
    cfg: rdx_api::ServeConfig,
}

/// Sets up one instance of the workload and runs `load` on it.
fn instance(w: &Workload, seed: u64, load: &Load, tracer: &mut Tracer) -> Result<Measured, String> {
    Ok(match w.transport {
        Transport::Unix => {
            let (setup_s, rep, server, tenants, cfg) = wire_instance(w, seed, Some(load), tracer)?;
            Measured {
                setup_s,
                rep,
                server,
                tenants,
                cfg,
            }
        }
        Transport::InProcess => {
            let (setup_s, rep, tenants, cfg) = inproc_instance(w, seed, Some(load), tracer);
            Measured {
                setup_s,
                rep,
                server: ServerReport::default(),
                tenants,
                cfg,
            }
        }
    })
}

fn ms_to(values: &[f64], scale: f64) -> Option<f64> {
    median(values).map(|m| m * scale)
}

/// A closed loop of two outstanding queries over `seq` from `start`, for
/// `seconds` and on until `min_queries` were issued.
fn closed(seq: &[mix::Cell], start: usize, seconds: f64, min_queries: usize) -> Load<'_> {
    Load {
        seq,
        start,
        width: 2,
        seconds: Some(seconds),
        min_queries,
    }
}

fn describe(out: &mut Vec<String>, label: &str, t: &Tally, elapsed_s: f64) {
    out.push(format!(
        "{label}: {} attempted, {} completed, failed_frac {:.4} (refused {}, undeliverable {}, \
         wrong {}) over {:.2} s",
        t.attempted(),
        t.completed(),
        t.failed_frac(),
        t.refused(),
        t.undeliverable(),
        t.wrong(),
        elapsed_s,
    ));
}

fn report_problems(out: &mut Output, bad: &[mix::Cell], violations: &[String]) {
    for cell in bad {
        out.notes.push(format!("WRONG RESULT for {cell:?}"));
    }
    for v in violations {
        out.notes.push(format!("GUARD FAILED: {v}"));
    }
}

/// `--trace 0`: the measured loop over [`INSTANCES`] instances, with more
/// set-ups between them.  The instances' outcomes are pooled.
fn untraced(args: &Args) -> Result<Output, String> {
    let w = &args.workload;
    let seq = w.sequence(args.seed, SEQUENCE_LEN);
    let mut off = Tracer::new(false, Instant::now(), "load");
    let mut setups: Vec<f64> = Vec::new();
    let mut tally = Tally::default();
    let (mut elapsed_s, mut instance_qps) = (0.0, Vec::new());
    let (mut checked, mut bad, mut violations) = (BTreeSet::new(), Vec::new(), Vec::new());
    for k in 0..INSTANCES {
        while setups.iter().sum::<f64>() < SETUP_FLOOR_S * k as f64 / INSTANCES as f64 {
            setups.push(setup_only(w, args.seed)?);
        }
        // Each instance goes on where the last stopped.  p90 needs
        // P90_MIN_SAMPLES attempts, so a slow workload runs on to them.
        let load = closed(
            &seq,
            tally.attempted(),
            args.seconds / INSTANCES as f64,
            P90_MIN_SAMPLES.div_ceil(INSTANCES),
        );
        let mut m = instance(w, args.seed, &load, &mut off)?;
        setups.push(m.setup_s);
        bad.extend(m.rep.check(&m.tenants, &m.cfg, &mut checked));
        violations.extend(m.rep.guard_violations(w));
        instance_qps.push(m.rep.qps());
        elapsed_s += m.rep.elapsed_s;
        tally.append(m.rep.tally);
    }
    let rss = env::peak_rss_mb();

    let mut out = Output::default();
    // The median instance: a host stall in one instance does not move it.
    out.put("qps", "1/s", median(&instance_qps));
    out.put("latency_p50_ms", "ms", tally.p50());
    out.put("latency_p90_ms", "ms", tally.p90());
    out.put("setup_s", "s", median(&setups));
    out.put("peak_rss_mb", "MB", Some(rss));
    describe(&mut out.notes, "queries", &tally, elapsed_s);
    out.notes
        .push(format!("qps per instance: {instance_qps:.2?}"));
    out.notes.push(format!(
        "failed_frac {:.6} frac; {} instances, {} set-ups, {:.4}..{:.4} s",
        tally.failed_frac(),
        INSTANCES,
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
    ));
    report_problems(&mut out, &bad, &violations);
    out.attempted = tally.attempted();
    out.failed = tally.failed();
    out.correct = bad.is_empty() && violations.is_empty() && tally.wrong() == 0;
    Ok(out)
}

/// `--trace 1`: an untraced half, a traced half with spans and allocation
/// counts, then the layer ledger.  Reports every per-layer metric.
fn traced(args: &Args) -> Result<Output, String> {
    let w = &args.workload;
    let seq = w.sequence(args.seed, SEQUENCE_LEN);
    let half = args.seconds / 2.0;
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch, "load");
    let mut plain = instance(w, args.seed, &closed(&seq, 0, half, 0), &mut off)?;
    let mut checked = BTreeSet::new();
    let mut bad = plain.rep.check(&plain.tenants, &plain.cfg, &mut checked);
    let mut violations = plain.rep.guard_violations(w);
    // Each instance and the ledger generate their own copy; free this one.
    plain.tenants.clear();

    let mut load_tr = Tracer::new(true, epoch, "load");
    count_allocations(true);
    let mut m = instance(w, args.seed, &closed(&seq, 0, half, 0), &mut load_tr)?;
    count_allocations(false);
    bad.extend(m.rep.check(&m.tenants, &m.cfg, &mut checked));
    violations.extend(m.rep.guard_violations(w));
    m.tenants.clear();

    let mut ledger_tr = Tracer::new(true, epoch, "ledger");
    let ledger = ledger::run(w, args.seed, &mut ledger_tr)?;
    // The ledger's net layer runs every cell, the over-cap ones too: those
    // are the only ones it may fail to deliver.
    for cell in ledger.net_failed.iter().filter(|&&c| !w.over_frame_cap(c)) {
        violations.push(format!("ledger net layer could not deliver {cell:?}"));
    }

    let mut out = Output::default();
    let wire = w.transport == Transport::Unix;

    // net: the measured loop over the socket, or (in process) the ledger's
    // net layer, which is the workload's only socket traffic.
    let (ntr, nrep, nsrv) = if wire {
        (&load_tr, &m.rep, &m.server)
    } else {
        (&ledger_tr, &ledger.net, &ledger.net_server)
    };
    let polls_pending = ntr.count("net.poll");
    let polls_terminal = ntr.count("net.poll.done") + ntr.count("net.poll.failed");
    let polls = (polls_pending + polls_terminal) as f64;
    let queries = nrep.tally.attempted().max(1) as f64;
    out.put(
        "net.submit_rtt_us_p50",
        "us",
        ms_to(&ntr.durations_ms("net.submit"), 1e3),
    );
    // 0 when every poll was terminal (the reply beat the first poll).
    out.put(
        "net.poll_rtt_us_p50",
        "us",
        Some(ms_to(&ntr.durations_ms("net.poll"), 1e3).unwrap_or(0.0)),
    );
    out.put("net.polls_per_query", "count", Some(polls / queries));
    out.put(
        "net.poll_useful_frac",
        "frac",
        Some(polls_terminal as f64 / polls.max(1.0)),
    );
    out.put(
        "net.done_poll_ms_p50",
        "ms",
        median(&ntr.durations_ms("net.poll.done")),
    );
    out.put(
        "net.result_mb_per_query",
        "MB",
        Some(nrep.result_bytes as f64 / nrep.delivered.max(1) as f64 / 1e6),
    );
    out.put(
        "net.frames_out_per_query",
        "count",
        Some(nsrv.net.frames_out as f64 / queries),
    );
    out.put(
        "net.backpressure_pauses",
        "count",
        Some(nsrv.net.backpressure_pauses as f64),
    );
    out.put(
        "net.decode_errors",
        "count",
        Some(nsrv.net.decode_errors as f64),
    );
    out.put(
        "net.undeliverable",
        "count",
        Some(nrep.tally.undeliverable() as f64),
    );
    out.put(
        "net.over_cap_refused",
        "count",
        Some(ledger.net_failed.len() as f64),
    );
    out.put("net.poll_cycle_us_p50", "us", ms_to(&nsrv.cycles_ms, 1e3));
    out.put(
        "net.idle_cycle_frac",
        "frac",
        Some(nsrv.idle_cycles as f64 / nsrv.cycles_ms.len().max(1) as f64),
    );

    // serve and exec: per-query `QueryStats` from the in-process loop; over
    // the socket they stay on the server, so the ledger's serve-layer
    // tickets (same cache state and budget, one at a time) stand in.
    let (stats, steps_ms, engine) = if wire {
        (
            &ledger.serve_stats,
            ledger.steps_ms.clone(),
            m.server.engine,
        )
    } else {
        (
            &m.rep.stats,
            load_tr.durations_ms("serve.step"),
            m.rep.engine,
        )
    };
    let per =
        |f: &dyn Fn(&rdx_serve::QueryStats) -> f64| -> Vec<f64> { stats.iter().map(f).collect() };
    let mean = |v: Vec<f64>| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    out.put(
        "serve.queue_wait_ms_p50",
        "ms",
        median(&per(&|s| ms(s.wait))),
    );
    out.put(
        "serve.service_ms_p50",
        "ms",
        median(&per(&|s| ms(s.service))),
    );
    out.put("serve.step_us_p50", "us", ms_to(&steps_ms, 1e3));
    out.put("serve.rejections", "count", Some(engine.rejections as f64));
    out.put("serve.replans", "count", Some(engine.replans as f64));
    out.put(
        "serve.cache_hit_frac",
        "frac",
        Some(m.rep.cache_hits as f64 / m.rep.delivered.max(1) as f64),
    );
    out.put("exec.join_ms", "ms", mean(per(&|s| ms(s.timings.join))));
    out.put(
        "exec.reorder_ms",
        "ms",
        mean(per(&|s| ms(s.timings.reorder))),
    );
    out.put(
        "exec.project_larger_ms",
        "ms",
        mean(per(&|s| ms(s.timings.project_larger))),
    );
    out.put(
        "exec.project_smaller_ms",
        "ms",
        mean(per(&|s| ms(s.timings.project_smaller))),
    );
    out.put(
        "exec.decluster_ms",
        "ms",
        mean(per(&|s| ms(s.timings.decluster))),
    );
    out.put(
        "exec.chunks_per_query",
        "count",
        mean(per(&|s| s.chunks as f64)),
    );
    out.put(
        "exec.peak_chunk_kb",
        "KB",
        per(&|s| s.peak_chunk_bytes as f64 / 1e3)
            .into_iter()
            .reduce(f64::max),
    );

    for (name, v) in ledger.summary() {
        let unit = if name == "ledger.cells" {
            "count"
        } else {
            "ms"
        };
        out.put(name, unit, Some(v));
    }

    let q = m.rep.tally.attempted().max(1) as f64;
    let (server_allocs, client_allocs) = if wire {
        (m.server.allocs, m.rep.allocs)
    } else {
        (m.rep.engine_allocs, m.rep.allocs)
    };
    out.put(
        "alloc.server_per_query",
        "count",
        Some(server_allocs as f64 / q),
    );
    out.put(
        "alloc.client_per_query",
        "count",
        Some(client_allocs as f64 / q),
    );

    // Tracing overhead: the traced half against the untraced half.
    out.put(
        "trace.overhead_qps_frac",
        "frac",
        Some(plain.rep.qps() / m.rep.qps() - 1.0),
    );
    out.put(
        "trace.overhead_p50_frac",
        "frac",
        m.rep
            .tally
            .p50()
            .zip(plain.rep.tally.p50())
            .map(|(t, p)| t / p - 1.0),
    );

    describe(
        &mut out.notes,
        "untraced half",
        &plain.rep.tally,
        plain.rep.elapsed_s,
    );
    describe(&mut out.notes, "traced half", &m.rep.tally, m.rep.elapsed_s);
    for (cell, row) in ledger.cells.iter().zip(&ledger.ms) {
        out.notes.push(format!("ledger {cell:?}: {row:.3?} ms"));
    }
    if !ledger.net_failed.is_empty() {
        out.notes.push(format!(
            "over the {} MiB frame cap, refused at the ledger's net layer: {:?}",
            DEFAULT_MAX_PAYLOAD >> 20,
            ledger.net_failed
        ));
    }
    report_problems(&mut out, &bad, &violations);
    if ledger.mismatches > 0 {
        out.notes.push(format!(
            "WRONG RESULT: {} ledger layer results differ from core",
            ledger.mismatches
        ));
    }

    let mut spans = String::new();
    for tr in [&load_tr, &ledger_tr] {
        tr.dump(&mut spans);
    }
    let path = format!("{OUT_DIR}/spans-{}-{}.jsonl", w.name, args.seed);
    std::fs::write(&path, spans).map_err(|e| format!("write {path}: {e}"))?;
    out.notes.push(format!("spans written to {path}"));

    out.attempted = m.rep.tally.attempted();
    out.failed = m.rep.tally.failed();
    out.correct = bad.is_empty()
        && violations.is_empty()
        && ledger.mismatches == 0
        && m.rep.tally.wrong() == 0
        && plain.rep.tally.wrong() == 0;
    Ok(out)
}

/// Runs one workload and prints its block; `false` if a result was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let out = if args.trace {
        traced(args)?
    } else {
        untraced(args)?
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env {}",
        env::stamp_json(&rdx_api::CacheParams::paper_pentium4(), args.seed)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json());
    Ok(out.correct)
}

fn main() -> ExitCode {
    let runs = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let mut correct = true;
    for args in &runs {
        match run(args) {
            Ok(ok) => correct &= ok,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload.name);
                return ExitCode::from(1);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
