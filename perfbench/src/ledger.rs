//! The layer ledger: each distinct `(tenant, π)` of a workload run once
//! through every layer, under that workload's cache state and budget.
//!
//! | layer | entry point timed                                          |
//! |-------|------------------------------------------------------------|
//! | core  | `DsmPostProjection::execute`, planned outside the timing (also the oracle) |
//! | exec  | `QueryEngine::resolve_direct`, its `PipelineRun` stepped to completion, `retire` |
//! | serve | `QueryEngine` submit → step → take_outcome                 |
//! | api   | `Session` `query(..).run()`                                 |
//! | net   | `NetClient` submit + poll until `Done`, over a unix socket |
//!
//! `PipelineRun` has no public constructor that avoids the
//! `ProjectionPipeline` wrapper slated for removal, so the exec layer
//! enters through the engine's one planner entry, which owns the run.

use crate::drive::{build, oracle_plan, wire_instance, Load, LoopReport, ServerReport, Tenant};
use crate::mix::{Cell, Workload};
use crate::trace::Tracer;
use rdx_core::strategy::MaterializeSink;
use rdx_dsm::ResultRelation;
use rdx_serve::{QueryStats, ServerRequest, TicketStatus};
use std::time::Instant;

pub const LAYERS: [&str; 5] = ["core", "exec", "serve", "api", "net"];

/// Per-cell time at each layer (ms, median over the cell's repetitions).
pub struct Ledger {
    pub cells: Vec<Cell>,
    /// `ms[cell][layer]`; `None` where the layer failed for the cell.
    pub ms: Vec<[Option<f64>; 5]>,
    /// Per-query engine stats from the serve layer's tickets.
    pub serve_stats: Vec<QueryStats>,
    /// Engine step durations (ms) from the serve layer.
    pub steps_ms: Vec<f64>,
    /// Results from exec, serve or api that differ from core.
    pub mismatches: usize,
    /// Cells the net layer could not deliver: those over the client's frame
    /// cap, which the measured loop never draws.
    pub net_failed: Vec<Cell>,
    /// The net layer's own loop and server reports.
    pub net: LoopReport,
    pub net_server: ServerReport,
}

fn same(a: &ResultRelation, b: &ResultRelation) -> bool {
    a.columns().len() == b.columns().len()
        && a.columns()
            .iter()
            .zip(b.columns())
            .all(|(x, y)| x.as_slice() == y.as_slice())
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, q: u64, f: impl FnOnce() -> T) -> (f64, T) {
    let span = tracer.open(name, q, None);
    let t = Instant::now();
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);
    (ms, out)
}

fn median_of(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Repetitions per cell: enough for ~50 ms of core time, 1 to 20.
fn reps_for(core_ms: f64) -> usize {
    ((50.0 / core_ms.max(1e-3)).ceil() as usize).clamp(1, 20)
}

pub fn run(w: &Workload, seed: u64, tracer: &mut Tracer) -> Result<Ledger, String> {
    let cells = w.cells();
    let (mut session, tenants, _) = build(w, seed);
    let shared = session.engine_mut().shared_params().clone();
    let mut ms = Vec::new();
    let mut reps = Vec::new();
    let mut serve_stats = Vec::new();
    let mut steps_ms = Vec::new();
    let mut mismatches = 0;
    for (q, &cell) in cells.iter().enumerate() {
        let q = q as u64;
        let t: &Tenant = &tenants[cell.tenant];
        let (l, s) = t.ids;
        let spec = cell.spec();
        let plan = oracle_plan(t, cell, &shared);
        let core = || plan.execute(&t.larger, &t.smaller, &spec, &shared).result;
        // The first run gives the reference result and sizes the repetitions.
        let t0 = Instant::now();
        let expected = core();
        let n = reps_for(t0.elapsed().as_secs_f64() * 1e3);
        reps.push(n);
        let mut layer: [Vec<f64>; 5] = Default::default();
        for _ in 0..n {
            let (core_ms, _) = timed(tracer, "ledger.core", q, core);
            layer[0].push(core_ms);

            // exec: the planner entry hands over the run; step it to the end.
            let (exec_ms, out) = timed(tracer, "ledger.exec", q, || {
                let engine = session.engine_mut();
                let mut rq = engine.resolve_direct(&ServerRequest::new(l, s, spec))?;
                let mut sink = MaterializeSink::new();
                while rq.step(&mut sink).is_some() {}
                engine.retire(rq);
                Ok::<_, rdx_api::RdxError>(sink.into_result())
            });
            match out {
                Ok(r) => {
                    mismatches += usize::from(!same(&r, &expected));
                    layer[1].push(exec_ms);
                }
                Err(e) => return Err(format!("ledger exec {cell:?}: {e}")),
            }

            // serve: one ticket through the scheduler, every step timed.
            let (serve_ms, out) = timed(tracer, "ledger.serve", q, || {
                let engine = session.engine_mut();
                let ticket = engine.submit(ServerRequest::new(l, s, spec));
                while engine.status(ticket) != Some(TicketStatus::Finished) {
                    let t = Instant::now();
                    engine.step();
                    steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                engine.take_outcome(ticket)
            });
            match out.map(|o| o.outcome) {
                Some(Ok(r)) => {
                    mismatches += usize::from(!same(&r.result, &expected));
                    serve_stats.push(r.stats);
                    layer[2].push(serve_ms);
                }
                Some(Err(e)) => return Err(format!("ledger serve {cell:?}: {e}")),
                None => return Err(format!("ledger serve {cell:?}: no outcome")),
            }

            let (api_ms, out) = timed(tracer, "ledger.api", q, || {
                session.query(l, s).project(spec).run()
            });
            match out {
                Ok(r) => {
                    mismatches += usize::from(!same(&r.result, &expected));
                    layer[3].push(api_ms);
                }
                Err(e) => return Err(format!("ledger api {cell:?}: {e}")),
            }
        }
        ms.push([
            Some(median_of(&mut layer[0])),
            Some(median_of(&mut layer[1])),
            Some(median_of(&mut layer[2])),
            Some(median_of(&mut layer[3])),
            None,
        ]);
    }
    drop(session);
    drop(tenants);

    // net: a fresh server under the same configuration (so the same cache
    // state), one connection, every cell its repetitions in order.
    let seq: Vec<Cell> = cells
        .iter()
        .zip(&reps)
        .flat_map(|(&c, &n)| std::iter::repeat_n(c, n))
        .collect();
    let load = Load {
        seq: &seq,
        start: 0,
        width: 1,
        seconds: None,
        min_queries: 0,
    };
    let (_, net, net_server, _, _) = wire_instance(w, seed, Some(&load), tracer)?;
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut failed = vec![false; cells.len()];
    let mut attempt = 0;
    for (i, &n) in reps.iter().enumerate() {
        for _ in 0..n {
            match net.tally.latency(attempt) {
                Some(v) => per_cell[i].push(v),
                None => failed[i] = true,
            }
            attempt += 1;
        }
    }
    for (i, v) in per_cell.iter_mut().enumerate() {
        if !failed[i] && !v.is_empty() {
            ms[i][4] = Some(median_of(v));
        }
    }
    let net_failed = cells
        .iter()
        .zip(&failed)
        .filter_map(|(&c, &f)| f.then_some(c))
        .collect();
    Ok(Ledger {
        cells,
        ms,
        serve_stats,
        steps_ms,
        mismatches,
        net_failed,
        net,
        net_server,
    })
}

impl Ledger {
    /// Median over cells that completed at every layer of the time at
    /// `layer`, and of each layer minus the layer below (paired per cell).
    pub fn summary(&self) -> Vec<(String, f64)> {
        let full: Vec<[f64; 5]> = self
            .ms
            .iter()
            .filter_map(|row| {
                let mut out = [0.0; 5];
                for (o, v) in out.iter_mut().zip(row) {
                    *o = (*v)?;
                }
                Some(out)
            })
            .collect();
        let mut out = Vec::new();
        if full.is_empty() {
            return out;
        }
        for (i, name) in LAYERS.iter().enumerate() {
            let mut v: Vec<f64> = full.iter().map(|r| r[i]).collect();
            out.push((format!("ledger.{name}_ms"), median_of(&mut v)));
        }
        for (i, name) in LAYERS.iter().enumerate().skip(1) {
            let mut v: Vec<f64> = full.iter().map(|r| r[i] - r[i - 1]).collect();
            out.push((format!("ledger.{name}_added_ms"), median_of(&mut v)));
        }
        out.push(("ledger.cells".into(), full.len() as f64));
        out
    }
}
