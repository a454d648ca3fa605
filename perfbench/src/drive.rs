//! Set-up and the closed loops: one over `NetClient` → unix socket →
//! `NetServer`, one over `Session` in process.  Both check every
//! delivered result's shape and keep the first result of each
//! `(tenant, π)` for the byte-for-byte check after the loop.

use crate::mix::{Cell, Transport, Workload};
use crate::tally::{Failure, Tally};
use crate::trace::{thread_allocations, Tracer};
use rdx_api::{CacheParams, QueryPoll, RowChunkSink, ServeConfig, Session, Ticket};
use rdx_core::strategy::planner::plan_by_cost_with_threads;
use rdx_core::strategy::DsmPostProjection;
use rdx_dsm::{DsmRelation, ResultRelation};
use rdx_net::{ClientError, Frame, NetClient, NetConfig, NetListener, NetStats, SubmitSpec};
use rdx_serve::{EngineStats, QueryEngine, QueryStats, RelationId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// `NetClient::wait`'s poll interval: the load thread sleeps this long
/// after a round that completes nothing.
pub const POLL_SLEEP: Duration = Duration::from_micros(200);

/// Where the run writes what it leaves behind (sockets, spans).
pub const OUT_DIR: &str = ".bench_out";

/// One tenant's relation pair, registered.
#[derive(Clone)]
pub struct Tenant {
    pub larger: Arc<DsmRelation>,
    pub smaller: Arc<DsmRelation>,
    pub ids: (RelationId, RelationId),
    /// Result rows every query on this pair returns.
    pub rows: usize,
}

/// A sink that keeps nothing: set-up warms the cluster cache through it.
struct NullSink;

impl RowChunkSink for NullSink {
    fn emit(&mut self, _first_row: usize, _columns: &[Vec<i32>]) {}
}

/// Set-up on the calling thread: generate the tenants from `seed`,
/// register them, and (for a warm workload) build every distinct prefix
/// into the cluster cache.
pub fn build(w: &Workload, seed: u64) -> (Session, Vec<Tenant>, ServeConfig) {
    let mix = w.generate(seed);
    let cfg = w.serve_config(&mix);
    let mut session = Session::new(cfg.clone());
    let tenants: Vec<Tenant> = mix
        .tenants
        .into_iter()
        .map(|jw| {
            let larger = Arc::new(jw.larger);
            let smaller = Arc::new(jw.smaller);
            let ids = (
                session.register_arc(larger.clone()),
                session.register_arc(smaller.clone()),
            );
            Tenant {
                larger,
                smaller,
                ids,
                rows: jw.expected_matches,
            }
        })
        .collect();
    if w.warm_cache {
        for cell in w.cells() {
            let (l, s) = tenants[cell.tenant].ids;
            let warmed = session
                .query(l, s)
                .project(cell.spec())
                .stream(&mut NullSink);
            if let Err(e) = warmed {
                panic!("warm-up of {cell:?} failed: {e}");
            }
        }
    }
    (session, tenants, cfg)
}

/// The correctness oracle's plan: rdx-core's one-shot `DsmPostProjection`
/// with the codes the engine picks at its cache share `shared`.
pub fn oracle_plan(t: &Tenant, cell: Cell, shared: &CacheParams) -> DsmPostProjection {
    plan_by_cost_with_threads(&t.larger, &t.smaller, &cell.spec(), shared, 1)
}

/// The correctness oracle: [`oracle_plan`] run through
/// `DsmPostProjection::execute`.
pub fn oracle(t: &Tenant, cell: Cell, cfg: &ServeConfig) -> ResultRelation {
    let shared = QueryEngine::new(cfg.clone()).shared_params().clone();
    oracle_plan(t, cell, &shared)
        .execute(&t.larger, &t.smaller, &cell.spec(), &shared)
        .result
}

/// A delivered result kept for the byte-for-byte check.
pub enum Sample {
    Wire(Vec<Vec<i32>>),
    Local(ResultRelation),
}

impl Sample {
    fn columns(&self) -> Vec<&[i32]> {
        match self {
            Sample::Wire(cols) => cols.iter().map(Vec::as_slice).collect(),
            Sample::Local(r) => r.columns().iter().map(|c| c.as_slice()).collect(),
        }
    }
}

/// What the load side of one measured loop saw.
#[derive(Default)]
pub struct LoopReport {
    pub tally: Tally,
    /// First delivered result per cell, with its tally index.
    pub samples: BTreeMap<Cell, (usize, Sample)>,
    pub delivered: usize,
    pub cache_hits: usize,
    pub result_bytes: u64,
    /// Wall clock from the first submit to the last outcome.
    pub elapsed_s: f64,
    /// Per-query engine stats (in-process loops only).
    pub stats: Vec<QueryStats>,
    /// Allocations the load side made (traced runs only).
    pub allocs: u64,
    /// Allocations made inside engine steps (in-process loops only).
    pub engine_allocs: u64,
    /// Engine counters accumulated over the loop (in-process loops only).
    pub engine: EngineStats,
}

impl LoopReport {
    pub fn qps(&self) -> f64 {
        self.tally.completed() as f64 / self.elapsed_s.max(1e-9)
    }

    /// Compares each kept sample of a cell not yet in `checked` with the
    /// oracle, and adds the cell to `checked`; a mismatch turns that query
    /// into a wrong result.  Returns the cells that mismatched.
    pub fn check(
        &mut self,
        tenants: &[Tenant],
        cfg: &ServeConfig,
        checked: &mut BTreeSet<Cell>,
    ) -> Vec<Cell> {
        let mut bad = Vec::new();
        for (cell, (index, sample)) in &self.samples {
            if !checked.insert(*cell) {
                continue;
            }
            let expected = oracle(&tenants[cell.tenant], *cell, cfg);
            let want: Vec<&[i32]> = expected.columns().iter().map(|c| c.as_slice()).collect();
            if sample.columns() != want {
                self.tally.mark_wrong(*index);
                bad.push(*cell);
            }
        }
        bad
    }

    /// The workload's invariants, broken by a run that reports `correct`
    /// numbers for the wrong reason:
    /// - every attempt of the measured loop completes (its sequence never
    ///   draws a result over the frame cap), so nothing is refused or lost;
    /// - a warm workload's every delivered result is a cluster-cache hit,
    ///   and a cold one's none.
    pub fn guard_violations(&self, w: &Workload) -> Vec<String> {
        let mut out = Vec::new();
        let (refused, lost) = (self.tally.refused(), self.tally.undeliverable());
        if refused + lost > 0 {
            out.push(format!(
                "{refused} refused and {lost} undeliverable of {} attempts; every query \
                 of the measured loop must complete",
                self.tally.attempted()
            ));
        }
        let hits_wanted = if w.warm_cache { self.delivered } else { 0 };
        if self.cache_hits != hits_wanted {
            out.push(format!(
                "{} cluster-cache hits over {} delivered results; the {} cache wants {hits_wanted}",
                self.cache_hits,
                self.delivered,
                if w.warm_cache { "warm" } else { "disabled" },
            ));
        }
        out
    }

    /// Records a delivered result whose shape has been checked.
    fn deliver(&mut self, cell: Cell, latency_ms: f64, ok: bool, sample: Sample) {
        if !ok {
            self.tally.fail(Failure::Wrong);
            return;
        }
        let index = self.tally.complete(latency_ms);
        self.delivered += 1;
        self.samples.entry(cell).or_insert((index, sample));
    }

    fn fail(&mut self, why: Failure) {
        self.tally.fail(why);
    }
}

/// What to run in a measured loop.
pub struct Load<'a> {
    /// Queries, cycled while a deadline is set, else run once.
    pub seq: &'a [Cell],
    /// Where in `seq` the loop starts (cycled loops only).
    pub start: usize,
    /// Queries kept outstanding at once.
    pub width: usize,
    /// Keep issuing until this many seconds have passed...
    pub seconds: Option<f64>,
    /// ...and at least this many queries were issued.
    pub min_queries: usize,
}

impl Load<'_> {
    fn next(&self, i: usize, started: Instant) -> Option<Cell> {
        match self.seconds {
            Some(s) if i < self.min_queries || started.elapsed().as_secs_f64() < s => {
                Some(self.seq[(self.start + i) % self.seq.len()])
            }
            Some(_) => None,
            None => self.seq.get(i).copied(),
        }
    }
}

// ---------------------------------------------------------------- in process

/// One in-process instance: set-up time, then (if `load` is given) the
/// measured loop.  Everything runs on the calling thread.
pub fn inproc_instance(
    w: &Workload,
    seed: u64,
    load: Option<&Load>,
    tracer: &mut Tracer,
) -> (f64, LoopReport, Vec<Tenant>, ServeConfig) {
    let t0 = Instant::now();
    let (mut session, tenants, cfg) = build(w, seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let report = match load {
        Some(load) => inproc_loop(&mut session, &tenants, load, tracer),
        None => LoopReport::default(),
    };
    (setup_s, report, tenants, cfg)
}

struct LocalSlot {
    ticket: Ticket,
    cell: Cell,
    started: Instant,
    span: Option<usize>,
}

pub fn inproc_loop(
    session: &mut Session,
    tenants: &[Tenant],
    load: &Load,
    tracer: &mut Tracer,
) -> LoopReport {
    let mut rep = LoopReport::default();
    let mut slots: Vec<Option<LocalSlot>> = (0..load.width).map(|_| None).collect();
    let mut issued = 0usize;
    let before = session.engine_mut().stats();
    let a0 = thread_allocations();
    let started = Instant::now();
    let mut last = started;
    loop {
        for slot in slots.iter_mut().filter(|s| s.is_none()) {
            let Some(cell) = load.next(issued, started) else {
                break;
            };
            let span = tracer.open("query", issued as u64, None);
            let (l, s) = tenants[cell.tenant].ids;
            let sub = tracer.open("api.submit", issued as u64, span);
            let started = Instant::now();
            let ticket = session.query(l, s).project(cell.spec()).submit();
            tracer.close(sub);
            *slot = Some(LocalSlot {
                ticket,
                cell,
                started,
                span,
            });
            issued += 1;
        }
        if slots.iter().all(Option::is_none) {
            break;
        }
        let e0 = thread_allocations();
        let step = tracer.open("serve.step", u64::MAX, None);
        session.engine_mut().step();
        tracer.close(step);
        rep.engine_allocs += thread_allocations() - e0;
        for entry in slots.iter_mut() {
            let Some(slot) = entry else { continue };
            let poll = session.poll(&slot.ticket);
            let ms = slot.started.elapsed().as_secs_f64() * 1e3;
            match poll {
                QueryPoll::Queued | QueryPoll::Chunk(_) => continue,
                QueryPoll::Done(result) => {
                    let t = &tenants[slot.cell.tenant];
                    let ok = result.result.cardinality() == t.rows
                        && result.result.columns().len() == slot.cell.spec().total();
                    rep.cache_hits += usize::from(result.stats.cache_hit);
                    rep.result_bytes += (t.rows * slot.cell.spec().total() * 4) as u64;
                    rep.stats.push(result.stats);
                    rep.deliver(slot.cell, ms, ok, Sample::Local(result.result));
                }
                QueryPoll::Rejected(_) => rep.fail(Failure::Refused),
            }
            tracer.close(slot.span);
            last = Instant::now();
            *entry = None;
        }
    }
    rep.elapsed_s = (last - started).as_secs_f64();
    rep.allocs = thread_allocations() - a0 - rep.engine_allocs;
    rep.engine = engine_delta(session.engine_mut().stats(), before);
    rep
}

// -------------------------------------------------------------- unix socket

/// What the server thread hands the load thread once set-up is done.
struct Ready {
    tenants: Vec<Tenant>,
    cfg: ServeConfig,
}

/// What the server thread saw over its life.
#[derive(Default)]
pub struct ServerReport {
    pub net: NetStats,
    /// Engine counters accumulated after set-up.
    pub engine: EngineStats,
    /// Poll-cycle durations in ms (traced only), and cycles that did no work.
    pub cycles_ms: Vec<f64>,
    pub idle_cycles: usize,
    pub allocs: u64,
}

fn engine_delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        chunks_dispatched: after.chunks_dispatched - before.chunks_dispatched,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        admissions: after.admissions - before.admissions,
        rejections: after.rejections - before.rejections,
        replans: after.replans - before.replans,
        ..after
    }
}

/// Generates, registers and warms on this thread, binds `path`, hands the
/// tenants over, and drives `NetServer::poll_cycle` the way
/// `NetServer::serve` does until the load side is `done` and every
/// connection has closed.  With `traced` it times each cycle.
fn server_thread(
    w: Workload,
    seed: u64,
    path: PathBuf,
    ready: mpsc::Sender<Result<Ready, String>>,
    done: &AtomicBool,
    traced: bool,
) -> ServerReport {
    let (session, tenants, cfg) = build(&w, seed);
    let listener = match NetListener::bind_unix(&path) {
        Ok(l) => l,
        Err(e) => {
            let _ = ready.send(Err(format!("bind {}: {e}", path.display())));
            return ServerReport::default();
        }
    };
    let mut server = session.into_server(listener, NetConfig::default());
    let before = server.engine().stats();
    if ready.send(Ok(Ready { tenants, cfg })).is_err() {
        return ServerReport::default();
    }
    let a0 = thread_allocations();
    let mut report = ServerReport::default();
    loop {
        let t = traced.then(Instant::now);
        let progressed = server.poll_cycle();
        if let Some(t) = t {
            report.cycles_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        if done.load(Ordering::Acquire) && server.connections() == 0 && server.engine().is_idle() {
            break;
        }
        if !progressed {
            report.idle_cycles += 1;
            std::thread::sleep(POLL_SLEEP);
        }
    }
    report.net = server.stats();
    report.allocs = thread_allocations() - a0;
    report.engine = engine_delta(server.engine().stats(), before);
    report
}

static SOCKETS: AtomicUsize = AtomicUsize::new(0);

fn connect(path: &Path) -> Result<NetClient, ClientError> {
    let mut c = NetClient::connect_unix(path)?;
    c.hello(None)?;
    Ok(c)
}

/// One socket instance: a server thread plus this (load) thread.  Returns
/// set-up time (generation through both clients' `Hello`), the load's
/// report if `load` is given, the server's report, and the tenants.
pub fn wire_instance(
    w: &Workload,
    seed: u64,
    load: Option<&Load>,
    tracer: &mut Tracer,
) -> Result<(f64, LoopReport, ServerReport, Vec<Tenant>, ServeConfig), String> {
    let n = SOCKETS.fetch_add(1, Ordering::Relaxed);
    let path = PathBuf::from(OUT_DIR).join(format!("s{}-{n}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let width = load.map_or(2, |l| l.width);
    let traced = tracer.on();
    let t0 = Instant::now();
    let done = AtomicBool::new(false);
    let out = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let (wc, p, d) = (*w, path.clone(), &done);
        let server = scope.spawn(move || server_thread(wc, seed, p, tx, d, traced));
        let ready = rx
            .recv()
            .map_err(|_| "server thread died in set-up".to_string())
            .and_then(|r| r);
        let result = ready.and_then(|ready| {
            let clients = (0..width)
                .map(|_| connect(&path))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("connect: {e}"));
            clients.map(|clients| {
                let setup_s = t0.elapsed().as_secs_f64();
                let rep = match load {
                    Some(load) => wire_loop(clients, &path, &ready.tenants, load, tracer),
                    None => LoopReport::default(),
                };
                (setup_s, rep, ready)
            })
        });
        // Every client is dropped by now, so the server drains and exits.
        done.store(true, Ordering::Release);
        let server = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        result.map(|(setup_s, rep, ready)| (setup_s, rep, server, ready.tenants, ready.cfg))
    });
    let _ = std::fs::remove_file(&path);
    out
}

struct WireSlot {
    client: NetClient,
    out: Option<Outstanding>,
}

struct Outstanding {
    ticket: u64,
    cell: Cell,
    started: Instant,
    span: Option<usize>,
}

fn wire_loop(
    clients: Vec<NetClient>,
    path: &Path,
    tenants: &[Tenant],
    load: &Load,
    tracer: &mut Tracer,
) -> LoopReport {
    let mut rep = LoopReport::default();
    let mut slots: Vec<WireSlot> = clients
        .into_iter()
        .map(|client| WireSlot { client, out: None })
        .collect();
    let mut issued = 0usize;
    let a0 = thread_allocations();
    let started = Instant::now();
    let mut last = started;
    loop {
        let mut progressed = false;
        for slot in slots.iter_mut() {
            match slot.out.take() {
                None => {
                    let Some(cell) = load.next(issued, started) else {
                        continue;
                    };
                    let q = issued as u64;
                    issued += 1;
                    progressed = true;
                    let (l, s) = tenants[cell.tenant].ids;
                    let spec = SubmitSpec {
                        larger: l.raw(),
                        smaller: s.raw(),
                        project_larger: cell.pi as u32,
                        project_smaller: cell.pi as u32,
                        budget_bytes: None,
                        threads: None,
                        codes: None,
                        deadline_ns: None,
                        priority: 1,
                    };
                    let span = tracer.open("query", q, None);
                    let sub = tracer.open("net.submit", q, span);
                    let t = Instant::now();
                    let submitted = slot.client.submit(spec);
                    tracer.close(sub);
                    match submitted {
                        Ok(ticket) => {
                            slot.out = Some(Outstanding {
                                ticket,
                                cell,
                                started: t,
                                span,
                            })
                        }
                        Err(e) => {
                            tracer.close(span);
                            last = Instant::now();
                            rep.fail(failure_of(&e));
                            reconnect_after(&e, slot, path);
                        }
                    }
                }
                Some(o) => {
                    let poll = tracer.open("net.poll", o.ticket, o.span);
                    let reply = slot.client.poll(o.ticket);
                    let ms = o.started.elapsed().as_secs_f64() * 1e3;
                    match reply {
                        Ok(Frame::Queued { .. }) | Ok(Frame::Chunk { .. }) => {
                            tracer.close(poll);
                            slot.out = Some(o);
                            continue;
                        }
                        Ok(Frame::Done { report, .. }) => {
                            tracer.close_as(poll, "net.poll.done");
                            let t = &tenants[o.cell.tenant];
                            let width = o.cell.spec().total();
                            let ok = report.rows == t.rows as u64
                                && report.columns.len() == width
                                && report.columns.iter().all(|c| c.len() == t.rows);
                            rep.cache_hits += usize::from(report.cache_hit);
                            rep.result_bytes += (t.rows * width * 4) as u64;
                            rep.deliver(o.cell, ms, ok, Sample::Wire(report.columns));
                        }
                        Ok(Frame::Rejected { .. }) => {
                            tracer.close_as(poll, "net.poll.done");
                            rep.fail(Failure::Refused);
                        }
                        Ok(_) => {
                            tracer.close_as(poll, "net.poll.failed");
                            rep.fail(Failure::Undeliverable);
                            slot.client = reconnect(path);
                        }
                        Err(e) => {
                            tracer.close_as(poll, "net.poll.failed");
                            rep.fail(failure_of(&e));
                            reconnect_after(&e, slot, path);
                        }
                    }
                    tracer.close(o.span);
                    progressed = true;
                    last = Instant::now();
                }
            }
        }
        if slots.iter().all(|s| s.out.is_none()) && load.next(issued, started).is_none() {
            break;
        }
        if !progressed {
            std::thread::sleep(POLL_SLEEP);
        }
    }
    rep.elapsed_s = (last - started).as_secs_f64();
    rep.allocs = thread_allocations() - a0;
    rep
}

fn failure_of(e: &ClientError) -> Failure {
    match e {
        ClientError::Rejected(_) => Failure::Refused,
        _ => Failure::Undeliverable,
    }
}

/// A typed refusal leaves the connection usable; anything else (an
/// oversized frame the client will not read, a dropped socket) leaves it
/// mid-frame, so the slot reconnects and the loop goes on.
fn reconnect_after(e: &ClientError, slot: &mut WireSlot, path: &Path) {
    if !matches!(e, ClientError::Rejected(_)) {
        slot.client = reconnect(path);
    }
}

fn reconnect(path: &Path) -> NetClient {
    match connect(path) {
        Ok(c) => c,
        Err(e) => panic!("reconnect to {}: {e}", path.display()),
    }
}

/// Runs `w`'s set-up on a fresh instance without measuring a loop; the
/// median of several of these is `setup_s`.
pub fn setup_only(w: &Workload, seed: u64) -> Result<f64, String> {
    let mut off = Tracer::new(false, Instant::now(), "load");
    match w.transport {
        Transport::Unix => wire_instance(w, seed, None, &mut off).map(|r| r.0),
        Transport::InProcess => Ok(inproc_instance(w, seed, None, &mut off).0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_workload::JoinWorkloadBuilder;

    fn tiny() -> (Vec<Tenant>, ServeConfig) {
        let w = JoinWorkloadBuilder::equal(500, 2).seed(7).build();
        let mut session = Session::new(ServeConfig::default());
        let larger = Arc::new(w.larger);
        let smaller = Arc::new(w.smaller);
        let ids = (
            session.register_arc(larger.clone()),
            session.register_arc(smaller.clone()),
        );
        let tenant = Tenant {
            larger,
            smaller,
            ids,
            rows: w.expected_matches,
        };
        (vec![tenant], ServeConfig::default())
    }

    fn wire_columns(r: &ResultRelation) -> Vec<Vec<i32>> {
        r.columns().iter().map(|c| c.as_slice().to_vec()).collect()
    }

    #[test]
    fn a_corrupted_result_fails_the_correctness_check() {
        let (tenants, cfg) = tiny();
        let cell = Cell { tenant: 0, pi: 2 };
        let good = wire_columns(&oracle(&tenants[0], cell, &cfg));
        let mut bad = good.clone();
        bad[3][17] ^= 1;

        let mut ok = LoopReport::default();
        ok.deliver(cell, 1.0, true, Sample::Wire(good));
        assert!(ok.check(&tenants, &cfg, &mut BTreeSet::new()).is_empty());
        assert_eq!(ok.tally.failed(), 0);

        let mut corrupted = LoopReport::default();
        corrupted.deliver(cell, 1.0, true, Sample::Wire(bad));
        let mut checked = BTreeSet::new();
        assert_eq!(corrupted.check(&tenants, &cfg, &mut checked), vec![cell]);
        assert_eq!((corrupted.tally.failed(), corrupted.tally.wrong()), (1, 1));
        assert_eq!(corrupted.tally.failed_frac(), 1.0);
        // A cell is compared once per run, in the first instance that has it.
        assert!(checked.contains(&cell));
    }

    fn workload(name: &str) -> Workload {
        crate::mix::find(name).unwrap()
    }

    #[test]
    fn no_attempt_of_the_measured_loop_may_fail() {
        let cell = Cell { tenant: 0, pi: 1 };
        for w in crate::mix::WORKLOADS {
            let mut rep = LoopReport::default();
            rep.deliver(cell, 1.0, true, Sample::Wire(Vec::new()));
            rep.cache_hits = usize::from(w.warm_cache);
            assert!(rep.guard_violations(&w).is_empty(), "{}", w.name);

            // A typed refusal breaks the guard...
            let mut refused = LoopReport::default();
            refused.fail(Failure::Refused);
            assert_eq!(refused.guard_violations(&w).len(), 1, "{}", w.name);
            // ...and so does a result that never reached the client.
            let mut lost = LoopReport::default();
            lost.fail(Failure::Undeliverable);
            assert_eq!(lost.guard_violations(&w).len(), 1, "{}", w.name);
        }
    }

    #[test]
    fn a_warm_workload_must_hit_the_cache_on_every_result() {
        let w = workload("wire_small_hot");
        let cell = Cell { tenant: 0, pi: 1 };
        let mut rep = LoopReport::default();
        for _ in 0..3 {
            rep.deliver(cell, 1.0, true, Sample::Wire(Vec::new()));
        }
        rep.cache_hits = 3;
        assert!(rep.guard_violations(&w).is_empty());
        rep.cache_hits = 2;
        assert_eq!(rep.guard_violations(&w).len(), 1);
    }

    #[test]
    fn a_cold_workload_must_never_hit_the_cache() {
        let w = workload("inproc_cold_budget");
        let cell = Cell { tenant: 0, pi: 1 };
        let mut rep = LoopReport::default();
        rep.deliver(cell, 1.0, true, Sample::Wire(Vec::new()));
        assert!(rep.guard_violations(&w).is_empty());
        rep.cache_hits = 1;
        assert_eq!(rep.guard_violations(&w).len(), 1);
    }

    #[test]
    fn a_result_of_the_wrong_shape_counts_as_failed_at_once() {
        let mut rep = LoopReport::default();
        let cell = Cell { tenant: 0, pi: 1 };
        rep.deliver(cell, 1.0, false, Sample::Wire(Vec::new()));
        assert_eq!((rep.tally.attempted(), rep.tally.wrong()), (1, 1));
        assert!(rep.samples.is_empty(), "a misshapen result is not kept");
    }
}
