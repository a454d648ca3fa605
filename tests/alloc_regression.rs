//! Allocation-regression tests for the zero-allocation scatter engine.
//!
//! A counting global allocator wraps `System` and tallies every `alloc` /
//! `realloc` per thread.  The headline guarantee: once a streaming
//! [`PipelineRun`] has emitted its first chunk on a single-threaded policy,
//! **every further [`PipelineRun::step`] performs zero heap allocations** —
//! the chunk loop runs entirely out of the run's [`ChunkScratch`] and the
//! caller's sink.  Companion tests pin down the per-call allocation budget
//! of the scratch kernels and of the wire's `Done` path, so a regression
//! that quietly reintroduces per-call buffers or copies fails loudly.

use radix_decluster::core::cluster::SWWC_SLOT_ELEMS;
use radix_decluster::net::{encode_done, encode_frame, Frame, WireReport};
use radix_decluster::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts allocations (and reallocations — a `realloc` is a new buffer as
/// far as steady-state reuse is concerned); frees are irrelevant here.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread.  Counting per thread keeps
    /// the test harness's own threads and concurrently running tests out
    /// of every measured window; each window runs its code under test on
    /// the measuring thread (single-threaded policies), so nothing it
    /// allocates is missed.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown is simply not
    // counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations the calling thread performed
/// during it.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A sink that verifies geometry but holds no memory: the steady-state
/// consumer of the zero-allocation gate (a materialising sink would
/// rightfully allocate for its own accumulation).
struct NullSink {
    rows: usize,
    chunks: usize,
}

impl RowChunkSink for NullSink {
    fn emit(&mut self, _first_row: usize, columns: &[Vec<i32>]) {
        self.rows += columns.first().map(|c| c.len()).unwrap_or(0);
        self.chunks += 1;
    }
}

#[test]
fn pipeline_step_allocates_nothing_in_steady_state() {
    let w = JoinWorkloadBuilder::equal(6_000, 2).seed(77).build();
    let spec = QuerySpec::symmetric(2);
    let params = CacheParams::tiny_for_tests();
    let data_bytes = 2 * 6_000 * 2 * 4;
    // Single-threaded policy: multi-threaded chunks inherently allocate for
    // their scoped thread spawns.
    let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::fraction_of(data_bytes, 32));
    let plan =
        DsmPostProjection::with_codes(ProjectionCode::PartialCluster, SecondSideCode::Decluster);
    let pipeline = ProjectionPipeline::new(plan);
    let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
    let mut run = DsmPipelineRun::over_dsm(
        prepared.clone(),
        &w.larger,
        &w.smaller,
        &spec,
        &params,
        &policy,
    );
    let mut sink = NullSink { rows: 0, chunks: 0 };

    // Warm-up: the first chunk grows the scratch to its high-water mark
    // (chunks after the first are never larger).
    assert!(run.step(&mut sink).is_some());

    // Steady state: zero heap allocations per chunk, across many chunks.
    let mut steady_chunks = 0;
    loop {
        let allocs = allocations_during(|| {
            let _ = run.step(&mut sink);
        });
        if run.is_done() {
            break;
        }
        steady_chunks += 1;
        assert_eq!(
            allocs, 0,
            "steady-state chunk {steady_chunks} allocated {allocs} times"
        );
    }
    assert!(
        steady_chunks >= 16,
        "budget should force many chunks, got {steady_chunks}"
    );
    assert_eq!(sink.rows, w.expected_matches);

    // The same prefix re-run on recycled scratch is warm from chunk one.
    let scratch = run.take_scratch();
    let mut second =
        DsmPipelineRun::over_dsm(prepared, &w.larger, &w.smaller, &spec, &params, &policy);
    second.attach_scratch(scratch);
    let mut sink2 = NullSink { rows: 0, chunks: 0 };
    let first_chunk_allocs = allocations_during(|| {
        second.step(&mut sink2);
        second.step(&mut sink2);
    });
    assert_eq!(
        first_chunk_allocs, 0,
        "recycled scratch must make even the first chunks allocation-free"
    );
}

#[test]
fn observed_pipeline_step_allocates_nothing_in_steady_state() {
    let w = JoinWorkloadBuilder::equal(6_000, 2).seed(77).build();
    let spec = QuerySpec::symmetric(2);
    let params = CacheParams::tiny_for_tests();
    let data_bytes = 2 * 6_000 * 2 * 4;
    let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::fraction_of(data_bytes, 32));
    let plan =
        DsmPostProjection::with_codes(ProjectionCode::PartialCluster, SecondSideCode::Decluster);
    let pipeline = ProjectionPipeline::new(plan);
    let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
    let mut run = DsmPipelineRun::over_dsm(
        prepared.clone(),
        &w.larger,
        &w.smaller,
        &spec,
        &params,
        &policy,
    );
    // Recording on: the handles (registry Arcs, trace ring) are resolved
    // and sized up-front by `attach_obs`, so the chunk loop itself records
    // through atomics and a pre-allocated ring only.
    let obs = Obs::enabled(ObsConfig::default());
    run.attach_obs(&obs, QueryId::next(), 1_000);
    let mut sink = NullSink { rows: 0, chunks: 0 };

    // Warm-up: first chunk grows scratch (and instantiates the histograms).
    assert!(run.step(&mut sink).is_some());

    let mut steady_chunks = 0;
    loop {
        let allocs = allocations_during(|| {
            let _ = run.step(&mut sink);
        });
        if run.is_done() {
            break;
        }
        steady_chunks += 1;
        assert_eq!(
            allocs, 0,
            "observed steady-state chunk {steady_chunks} allocated {allocs} times"
        );
    }
    assert!(
        steady_chunks >= 16,
        "budget should force many chunks, got {steady_chunks}"
    );
    assert_eq!(sink.rows, w.expected_matches);
    // Every steady chunk landed in the trace and both histograms.
    let trace = obs.trace_snapshot().expect("enabled");
    assert_eq!(trace.events.len(), sink.chunks);
    let metrics = obs.metrics_snapshot().expect("enabled");
    let h = metrics.histogram("pipeline.chunk_ns").expect("recorded");
    assert_eq!(h.count, sink.chunks as u64);
}

/// Runtime adaptation must not cost the zero-allocation guarantee: with a
/// policy armed and accurate feedback (every chunk observes exactly its
/// prediction), the controller holds on every chunk and the steady-state
/// loop stays allocation-free — the controller, feedback source and
/// prediction state are all pre-allocated by `attach_adaptive`.
#[test]
fn adaptive_hold_steps_allocate_nothing_in_steady_state() {
    let w = JoinWorkloadBuilder::equal(6_000, 2).seed(77).build();
    let spec = QuerySpec::symmetric(2);
    let params = CacheParams::tiny_for_tests();
    let data_bytes = 2 * 6_000 * 2 * 4;
    let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::fraction_of(data_bytes, 32));
    let plan =
        DsmPostProjection::with_codes(ProjectionCode::PartialCluster, SecondSideCode::Decluster);
    let pipeline = ProjectionPipeline::new(plan);
    let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
    let mut run = DsmPipelineRun::over_dsm(
        prepared.clone(),
        &w.larger,
        &w.smaller,
        &spec,
        &params,
        &policy,
    );
    run.attach_adaptive(
        AdaptivePolicy::default(),
        Box::new(ScriptedFeedback::constant(1_000)),
        &params,
    );
    let mut sink = NullSink { rows: 0, chunks: 0 };

    // Warm-up: the first chunk grows the scratch to its high-water mark.
    assert!(run.step(&mut sink).is_some());

    let mut steady_chunks = 0;
    loop {
        let allocs = allocations_during(|| {
            let _ = run.step(&mut sink);
        });
        if run.is_done() {
            break;
        }
        steady_chunks += 1;
        assert_eq!(
            allocs, 0,
            "adaptive hold chunk {steady_chunks} allocated {allocs} times"
        );
    }
    assert!(
        steady_chunks >= 16,
        "budget should force many chunks, got {steady_chunks}"
    );
    assert_eq!(sink.rows, w.expected_matches);
    assert_eq!(
        run.run_stats().adaptive_replans,
        0,
        "accurate feedback holds"
    );
}

/// A fired re-split may allocate in the re-split step itself (the planner
/// runs once) — but the chunks *after* it must return to zero allocations:
/// a slow re-split only shrinks the chunk working set, so the warmed
/// scratch never regrows.
#[test]
fn steps_after_a_resplit_return_to_zero_allocations() {
    let w = JoinWorkloadBuilder::equal(6_000, 2).seed(77).build();
    let spec = QuerySpec::symmetric(2);
    let params = CacheParams::tiny_for_tests();
    let data_bytes = 2 * 6_000 * 2 * 4;
    let policy = ExecPolicy::with_threads(1).budget(MemoryBudget::fraction_of(data_bytes, 32));
    let plan =
        DsmPostProjection::with_codes(ProjectionCode::PartialCluster, SecondSideCode::Decluster);
    let pipeline = ProjectionPipeline::new(plan);
    let prepared = Arc::new(pipeline.prepare(&w.larger, &w.smaller, &params, &policy));
    let mut run = DsmPipelineRun::over_dsm(
        prepared.clone(),
        &w.larger,
        &w.smaller,
        &spec,
        &params,
        &policy,
    );
    // React instantly, once: accurate for three observations, then a 3x
    // shock — the single re-plan fires at a known chunk index.
    run.attach_adaptive(
        AdaptivePolicy::default()
            .alpha(1_000)
            .observations(1)
            .replans(1),
        Box::new(ScriptedFeedback::from_ratios(&[
            1_000, 1_000, 1_000, 3_000, 1_000,
        ])),
        &params,
    );
    let wide_chunk_rows = run.streaming().chunk_rows;
    let mut sink = NullSink { rows: 0, chunks: 0 };

    // Warm-up chunk 0, then two accurate steady chunks: still 0-alloc.
    assert!(run.step(&mut sink).is_some());
    for i in 1..3 {
        let allocs = allocations_during(|| {
            let _ = run.step(&mut sink);
        });
        assert_eq!(allocs, 0, "pre-resplit chunk {i} allocated {allocs} times");
    }

    // Chunk 3 observes the shock and fires the re-split — the one step
    // allowed to allocate (the planner's arithmetic, measured separately).
    let resplit_allocs = allocations_during(|| {
        let _ = run.step(&mut sink);
    });
    assert_eq!(run.run_stats().adaptive_replans, 1, "the shock must fire");
    assert!(
        run.streaming().chunk_rows < wide_chunk_rows,
        "a slow re-split must tighten chunks"
    );
    assert!(
        resplit_allocs <= 8,
        "the re-split step itself grew unexpectedly: {resplit_allocs} allocations"
    );

    // Every chunk after the re-split is allocation-free again: the
    // tightened chunks fit the already-warmed scratch.
    let mut steady_chunks = 0;
    loop {
        let allocs = allocations_during(|| {
            let _ = run.step(&mut sink);
        });
        if run.is_done() {
            break;
        }
        steady_chunks += 1;
        assert_eq!(
            allocs, 0,
            "post-resplit chunk {steady_chunks} allocated {allocs} times"
        );
    }
    assert!(
        steady_chunks >= 16,
        "the tightened tail should stream many chunks, got {steady_chunks}"
    );
    assert_eq!(sink.rows, w.expected_matches);
}

#[test]
fn cluster_with_scratch_allocates_only_the_output() {
    let oids: Vec<Oid> = (0..50_000u32).rev().collect();
    let payloads: Vec<Oid> = (0..50_000).collect();
    let spec = RadixClusterSpec::partial(6, 2, 0);
    let mut scratch = ClusterScratch::new();
    for mode in [ScatterMode::Plain, ScatterMode::Buffered] {
        // Warm-up grows the arena (the buffered mode additionally owns its
        // staging buffers, so each mode warms its own working set).
        let _ = radix_cluster_oids_with_scratch(&oids, &payloads, spec, mode, &mut scratch);
        let mut out = None;
        let allocs = allocations_during(|| {
            out = Some(radix_cluster_oids_with_scratch(
                &oids,
                &payloads,
                spec,
                mode,
                &mut scratch,
            ));
        });
        // Exactly the owned output: keys + payloads + bounds (the seed
        // kernel allocated four full-size working buffers and two cursor
        // vectors per segment on top).
        assert!(
            allocs <= 3,
            "{mode:?}: {allocs} allocations for an owned-output call"
        );
        assert_eq!(out.unwrap().len(), 50_000);
    }
    // The borrowed-view entry point allocates nothing at all (its result
    // buffers are part of the arena, warmed by its own first run).
    let _ = scratch.cluster_oids_in_scratch(&oids, &payloads, spec, ScatterMode::Buffered);
    let view_allocs = allocations_during(|| {
        let view = scratch.cluster_oids_in_scratch(&oids, &payloads, spec, ScatterMode::Buffered);
        assert_eq!(view.len(), 50_000);
    });
    assert_eq!(view_allocs, 0, "in-scratch clustering must not allocate");
}

#[test]
fn decluster_into_allocates_nothing_after_warmup() {
    let n = 20_000usize;
    let smaller: Vec<Oid> = (0..n as Oid).rev().collect();
    let positions: Vec<Oid> = (0..n as Oid).collect();
    let clustered = radix_decluster_inputs(&smaller, &positions);
    let (values, positions, bounds) = clustered;
    let mut scratch = DeclusterScratch::new();
    let mut out = vec![0i32; n];
    // Warm-up.
    radix_decluster_into(&values, &positions, &bounds, 4096, &mut scratch, &mut out);
    let allocs = allocations_during(|| {
        for _ in 0..5 {
            radix_decluster_into(&values, &positions, &bounds, 4096, &mut scratch, &mut out);
        }
    });
    assert_eq!(allocs, 0, "decluster_into must reuse its cursor scratch");
    let expected = radix_decluster(&values, &positions, &bounds, 4096);
    assert_eq!(out, expected);
}

/// Builds a valid (values, positions, bounds) decluster input from a
/// shuffled oid column, as the §3.2 pipeline does.
fn radix_decluster_inputs(smaller: &[Oid], positions: &[Oid]) -> (Vec<i32>, Vec<Oid>, Vec<usize>) {
    let clustered = radix_decluster_cluster(smaller, positions);
    let values: Vec<i32> = clustered.keys().iter().map(|&o| o as i32 * 3).collect();
    (
        values,
        clustered.payloads().to_vec(),
        clustered.bounds().to_vec(),
    )
}

fn radix_decluster_cluster(
    smaller: &[Oid],
    positions: &[Oid],
) -> radix_decluster::core::cluster::Clustered<Oid, Oid> {
    radix_decluster::core::cluster::radix_cluster_oids(
        smaller,
        positions,
        RadixClusterSpec::single_pass(5),
    )
}

#[test]
fn swwc_slot_constant_agrees_between_kernel_and_cost_model() {
    // `rdx-cost` cannot depend on `rdx-core` (the planner would create a
    // cycle), so the staging-slot size is mirrored; this pins the mirror.
    assert_eq!(
        SWWC_SLOT_ELEMS,
        radix_decluster::cost::algorithms::SWWC_SLOT_ELEMS
    );
}

/// `n` columns of `rows` values each, distinct per column.
fn result_columns(n: usize, rows: usize) -> Vec<Vec<i32>> {
    (0..n)
        .map(|c| {
            (0..rows)
                .map(|r| (r as i32).wrapping_mul(31) ^ c as i32)
                .collect()
        })
        .collect()
}

/// The server's `Done` path copies each result value once: encoding from
/// borrowed columns reserves the exact frame up front, so it allocates
/// once into an empty buffer and not at all into one already large enough
/// — whatever the column count and size.
#[test]
fn done_frame_encodes_from_borrowed_columns_in_one_allocation() {
    for (ncols, rows) in [(0, 0), (1, 0), (4, 1_000), (8, 200_000)] {
        let columns = result_columns(ncols, rows);
        let borrowed = || columns.iter().map(Vec::as_slice);
        let mut bytes = Vec::new();
        let allocs = allocations_during(|| {
            encode_done(7, rows as u64, 3, true, 4096, borrowed(), &mut bytes);
        });
        assert_eq!(allocs, 1, "{ncols}×{rows}: into an empty Vec");

        // Byte-identical to the owned-report encoder.
        let mut expected = Vec::new();
        let report = WireReport {
            rows: rows as u64,
            chunks: 3,
            cache_hit: true,
            share_bytes: 4096,
            columns: columns.clone(),
        };
        encode_frame(&Frame::Done { ticket: 7, report }, &mut expected);
        assert_eq!(bytes, expected, "{ncols}×{rows}: bytes");

        bytes.clear();
        let allocs = allocations_during(|| {
            encode_done(7, rows as u64, 3, true, 4096, borrowed(), &mut bytes);
        });
        assert_eq!(allocs, 0, "{ncols}×{rows}: into a reserved Vec");
        assert_eq!(bytes, expected);
    }
}

/// The client reads a large frame's body straight into a buffer grown once
/// to the frame's size: the allocations of one `recv` are the same for a
/// 1 MB and an 8 MB frame (the old 4 KiB read loop regrew its buffer once
/// per doubling), and beyond the decoded columns themselves they are at
/// most two (the header read and the one exact growth).
#[cfg(unix)]
#[test]
fn client_reads_a_large_frame_with_constant_buffer_growth() {
    use radix_decluster::net::{NetClient, NetStream};
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    let ncols = 4;
    let mut counts = Vec::new();
    for rows in [1 << 16, 1 << 19] {
        let columns = result_columns(ncols, rows);
        let frame = Frame::Done {
            ticket: 1,
            report: WireReport {
                rows: rows as u64,
                chunks: 1,
                cache_hit: false,
                share_bytes: 0,
                columns,
            },
        };
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
        let writer = std::thread::spawn(move || theirs.write_all(&bytes));
        let mut client = NetClient::new(NetStream::Unix(ours));
        let mut received = None;
        let allocs = allocations_during(|| received = Some(client.recv()));
        writer.join().expect("writer").expect("write");
        assert_eq!(received.expect("ran").expect("frame"), frame);
        // Decoding allocates the column list and one buffer per column.
        let decode = 1 + ncols;
        assert!(
            allocs <= decode + 2,
            "{rows} rows: {allocs} allocations, {} for the read buffer",
            allocs - decode
        );
        counts.push(allocs);
    }
    assert_eq!(
        counts[0], counts[1],
        "buffer growth must not scale with size"
    );
}
