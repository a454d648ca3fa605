//! Figure-reproduction harness: one subcommand per table/figure of the
//! paper's §4 evaluation (the list below is the experiment index).
//!
//! ```text
//! cargo run --release -p rdx-bench --bin figures -- <figure> [--scale small|medium|paper] [--sparse]
//!     figure ∈ { fig7a, fig7b, fig8, fig9a, fig9b, fig9c, fig9d, fig9e, fig9f,
//!                fig10a, fig10b, fig10c, fig11, fig12, all }
//! ```
//!
//! Every subcommand prints the same rows/series the corresponding paper figure
//! plots.  Absolute milliseconds belong to the host that runs them; the
//! shapes (orderings, crossovers, knee positions) are what to compare
//! against the paper.

use rdx_bench::measure::*;
use rdx_bench::table::ms;
use rdx_bench::{Scale, Table};
use rdx_cache::CacheParams;
use rdx_core::cluster::{radix_cluster_oids, RadixClusterSpec};
use rdx_core::decluster::paged::radix_decluster_paged;
use rdx_core::strategy::QuerySpec;
use rdx_dsm::{Oid, VarColumn};
use rdx_nsm::BufferManager;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figure = args.first().map(String::as_str).unwrap_or("help");
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| Scale::parse(s))
        .unwrap_or(Scale::Small);
    let sparse = args.iter().any(|a| a == "--sparse");
    let params = CacheParams::paper_pentium4();

    if figure == "help" || figure == "--help" {
        eprintln!(
            "usage: figures <fig7a|fig7b|fig8|fig9a..fig9f|fig10a|fig10b|fig10c|fig11|fig12|all> \
             [--scale small|medium|paper] [--sparse]"
        );
        return;
    }

    assert!(
        sanity_check(),
        "sanity check failed: strategies disagree on a small workload"
    );
    println!("# scale = {scale:?}, cache model = paper Pentium 4 (512 KB L2, 64-entry TLB)");
    println!();

    let run_all = figure == "all";
    let want = |f: &str| run_all || figure == f;

    if want("fig7a") {
        fig7a(scale, &params);
    }
    if want("fig7b") {
        fig7b(scale, &params);
    }
    if want("fig8") {
        fig8(scale, &params);
    }
    for (name, panel) in [
        ("fig9a", Fig9Panel::RadixCluster),
        ("fig9b", Fig9Panel::PartitionedHashJoin),
        ("fig9c", Fig9Panel::ClusteredPositionalJoin),
        ("fig9d", Fig9Panel::RadixDecluster),
        ("fig9e", Fig9Panel::LeftJive),
        ("fig9f", Fig9Panel::RightJive),
    ] {
        if want(name) {
            fig9(name, panel, scale, &params);
        }
    }
    if want("fig10a") {
        fig10a(scale, sparse, &params);
    }
    if want("fig10b") {
        fig10b(scale, &params);
    }
    if want("fig10c") {
        fig10c(scale, &params);
    }
    if want("fig11") {
        fig11(scale, &params);
    }
    if want("fig12") {
        fig12(scale, &params);
    }
}

/// Fig. 7a — Radix-Decluster in isolation: insertion-window sweep with
/// simulated L1/L2/TLB misses and measured + modeled elapsed time.
fn fig7a(scale: Scale, params: &CacheParams) {
    let n = scale.decluster_cardinality();
    let bits = 8;
    println!("## Figure 7a — Radix-Decluster window sweep (N = {n}, B = {bits}, pi = 1)");
    let input = make_decluster_input(n, bits, 1);
    // 1 KB … 32 MB in powers of 4 (powers of 2 at paper scale).
    let step = if scale == Scale::Paper { 2 } else { 4 };
    let mut windows = Vec::new();
    let mut w = 1024usize;
    while w <= 32 * 1024 * 1024 {
        windows.push(w);
        w *= step;
    }
    // Simulating every window at full N is slow; simulate on a 1/8 sample of N
    // (the knee positions depend on the window vs. cache size, not on N).
    let sim_input = make_decluster_input(n / 8, bits, 2);
    let sim_points = decluster_window_sweep(&sim_input, bits, &windows, params, true);
    let timed_points = decluster_window_sweep(&input, bits, &windows, params, false);

    let mut t = Table::new(vec![
        "window[B]",
        "L1 misses",
        "L2 misses",
        "TLB misses",
        "measured[ms]",
        "model[ms]",
    ]);
    for (sim, timed) in sim_points.iter().zip(&timed_points) {
        t.row(vec![
            format!("{}", timed.window_bytes),
            format!("{}", sim.l1_misses.unwrap_or(0)),
            format!("{}", sim.l2_misses.unwrap_or(0)),
            format!("{}", sim.tlb_misses.unwrap_or(0)),
            ms(timed.millis),
            ms(timed.model_millis),
        ]);
    }
    t.print();
    println!(
        "(miss counts simulated on N/8 = {} tuples; times measured on the full N)\n",
        n / 8
    );
}

/// Fig. 7b — components (Radix-Cluster, Positional-Join, Radix-Decluster) and
/// total cost of the smaller-side projection vs. radix bits.
fn fig7b(scale: Scale, params: &CacheParams) {
    let n = scale.decluster_cardinality();
    println!("## Figure 7b — projection components vs radix bits (N = {n}, pi = 1)");
    let max_bits = (usize::BITS - n.leading_zeros()).min(20);
    let bits_list = scale.bit_sweep(max_bits);
    let points = decluster_components_sweep(n, &bits_list, params);
    let mut t = Table::new(vec![
        "bits",
        "radix-cluster[ms]",
        "positional-join[ms]",
        "radix-decluster[ms]",
        "total[ms]",
        "model-total[ms]",
    ]);
    for p in points {
        t.row(vec![
            format!("{}", p.bits),
            ms(p.cluster_ms),
            ms(p.positional_ms),
            ms(p.decluster_ms),
            ms(p.total_ms),
            ms(p.model_total_ms),
        ]);
    }
    t.print();
    println!();
}

/// Fig. 8 — DSM post-projection strategies (u/s/c/d) vs. projectivity, for two
/// cardinalities.
fn fig8(scale: Scale, params: &CacheParams) {
    println!("## Figure 8 — DSM post-projection strategies vs projectivity");
    for n in scale.fig8_cardinalities() {
        println!("### cardinality N = {n}");
        let mut t = Table::new(vec![
            "pi",
            "unsorted[ms]",
            "sorted[ms]",
            "p.-clustered[ms]",
            "declustered[ms]",
        ]);
        for pi in [1usize, 4, 16, 64] {
            let row: Vec<String> = ['u', 's', 'c', 'd']
                .iter()
                .map(|&code| ms(dsm_post_projection_phase_ms(code, n, pi, params)))
                .collect();
            t.row(vec![
                format!("{pi}"),
                row[0].clone(),
                row[1].clone(),
                row[2].clone(),
                row[3].clone(),
            ]);
        }
        t.print();
        println!();
    }
}

#[derive(Clone, Copy)]
enum Fig9Panel {
    RadixCluster,
    PartitionedHashJoin,
    ClusteredPositionalJoin,
    RadixDecluster,
    LeftJive,
    RightJive,
}

/// Fig. 9a–f — modeled vs. measured cost of the individual join phases as a
/// function of the radix bits, for two cardinalities per panel.
fn fig9(name: &str, panel: Fig9Panel, scale: Scale, params: &CacheParams) {
    let (big, small) = scale.fig9_cardinalities();
    let cards = match panel {
        Fig9Panel::ClusteredPositionalJoin | Fig9Panel::RightJive => small,
        _ => big,
    };
    let title = match panel {
        Fig9Panel::RadixCluster => "Radix-Cluster",
        Fig9Panel::PartitionedHashJoin => "Partitioned Hash-Join",
        Fig9Panel::ClusteredPositionalJoin => "Clustered Positional-Join",
        Fig9Panel::RadixDecluster => "Radix-Decluster",
        Fig9Panel::LeftJive => "Left Jive-Join",
        Fig9Panel::RightJive => "Right Jive-Join",
    };
    println!("## Figure {name} — {title}: modeled vs measured (pi = 1)");
    let mut t = Table::new(vec!["N", "bits", "measured[ms]", "model[ms]"]);
    for &n in &cards {
        let max_bits = (usize::BITS - n.leading_zeros()).min(18);
        for bits in scale.bit_sweep(max_bits) {
            let p = match panel {
                Fig9Panel::RadixCluster => fig9_radix_cluster(n, bits, params),
                Fig9Panel::PartitionedHashJoin => fig9_partitioned_hash_join(n, bits, params),
                Fig9Panel::ClusteredPositionalJoin => {
                    fig9_clustered_positional_join(n, bits, params)
                }
                Fig9Panel::RadixDecluster => fig9_radix_decluster(n, bits, params),
                Fig9Panel::LeftJive => fig9_jive(n, bits, true, params),
                Fig9Panel::RightJive => fig9_jive(n, bits, false, params),
            };
            t.row(vec![
                format!("{n}"),
                format!("{bits}"),
                ms(p.measured_ms),
                ms(p.modeled_ms),
            ]);
        }
    }
    t.print();
    println!();
}

/// Fig. 10a — overall join performance vs. projectivity.
fn fig10a(scale: Scale, sparse: bool, params: &CacheParams) {
    let (n, omega) = scale.fig10_base();
    println!(
        "## Figure 10a — overall strategies vs projectivity (N = {n}, omega = {omega}, h = 1:1)"
    );
    let pis: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&p| p <= omega)
        .collect();
    let mut header = vec!["strategy".to_string()];
    header.extend(pis.iter().map(|p| format!("pi={p} [ms]")));
    let mut t = Table::new(header);
    for strategy in OverallStrategy::ALL {
        let mut cells = vec![strategy.label().to_string()];
        for &pi in &pis {
            let workload = fig10_workload(n, omega, 1.0, 31);
            let spec = QuerySpec::symmetric(pi);
            let (total_ms, _) = run_overall_strategy(strategy, &workload, &spec, params);
            cells.push(ms(total_ms));
        }
        t.row(cells);
    }
    t.print();
    if sparse {
        println!();
        println!("### sparse DSM post-projection (error bars): smaller-side projection phase only");
        let mut t = Table::new(vec!["selectivity", "pi=4 [ms]"]);
        for s in [1.0, 0.1, 0.01] {
            t.row(vec![
                format!("{:.0}%", s * 100.0),
                ms(dsm_post_sparse_ms(n, 4, s, params)),
            ]);
        }
        t.print();
    }
    println!();
}

/// Fig. 10b — overall join performance vs. join hit rate.
fn fig10b(scale: Scale, params: &CacheParams) {
    let (n, omega) = scale.fig10_base();
    println!(
        "## Figure 10b — overall strategies vs join hit rate (N = {n}, omega = {omega}, pi = 4)"
    );
    let spec = QuerySpec::symmetric(4.min(omega));
    let mut t = Table::new(vec!["strategy", "h=1:3 [ms]", "h=1:1 [ms]", "h=3:1 [ms]"]);
    for strategy in OverallStrategy::ALL {
        let mut cells = vec![strategy.label().to_string()];
        for h in [1.0 / 3.0, 1.0, 3.0] {
            let workload = fig10_workload(n, omega, h, 37);
            let (total_ms, _) = run_overall_strategy(strategy, &workload, &spec, params);
            cells.push(ms(total_ms));
        }
        t.row(cells);
    }
    t.print();
    println!();
}

/// Fig. 10c — overall join performance vs. cardinality; the DSM post column
/// also reports which projection codes the planner chose.
fn fig10c(scale: Scale, params: &CacheParams) {
    let (_, omega) = scale.fig10_base();
    println!(
        "## Figure 10c — overall strategies vs cardinality (omega = {omega}, pi = 4, h = 1:1)"
    );
    let spec = QuerySpec::symmetric(4.min(omega));
    let mut t = Table::new(vec![
        "N",
        "DSM-post [ms] (codes)",
        "DSM-pre [ms]",
        "NSM-pre-phash [ms]",
        "NSM-pre-hash [ms]",
        "NSM-post-decl [ms]",
        "NSM-post-jive [ms]",
    ]);
    for n in scale.fig10c_cardinalities() {
        let workload = fig10_workload(n, omega, 1.0, 41);
        let (dsm_post_ms, codes) =
            run_overall_strategy(OverallStrategy::DsmPostDecluster, &workload, &spec, params);
        let others: Vec<f64> = [
            OverallStrategy::DsmPrePhash,
            OverallStrategy::NsmPrePhash,
            OverallStrategy::NsmPreHash,
            OverallStrategy::NsmPostDecluster,
            OverallStrategy::NsmPostJive,
        ]
        .into_iter()
        .map(|s| run_overall_strategy(s, &workload, &spec, params).0)
        .collect();
        t.row(vec![
            format!("{n}"),
            format!("{} ({})", ms(dsm_post_ms), codes.unwrap_or_default()),
            ms(others[0]),
            ms(others[1]),
            ms(others[2]),
            ms(others[3]),
            ms(others[4]),
        ]);
    }
    t.print();
    println!();
}

/// Fig. 11 — sparse Clustered Positional-Join vs. radix bits, for three
/// selectivities.
fn fig11(scale: Scale, params: &CacheParams) {
    let selected = scale.fig11_selected();
    println!("## Figure 11 — sparse clustered positional join (N = {selected} selected tuples)");
    let mut t = Table::new(vec!["bits", "s=100% [ms]", "s=10% [ms]", "s=1% [ms]"]);
    let max_bits = (usize::BITS - selected.leading_zeros()).min(16);
    for bits in scale.bit_sweep(max_bits) {
        t.row(vec![
            format!("{bits}"),
            ms(sparse_clustered_positional_ms(selected, 1.0, bits, params)),
            ms(sparse_clustered_positional_ms(selected, 0.1, bits, params)),
            ms(sparse_clustered_positional_ms(selected, 0.01, bits, params)),
        ]);
    }
    t.print();
    println!();
}

/// Fig. 12 / §5 — three-phase Radix-Decluster of variable-size values into
/// buffer-manager pages.
fn fig12(scale: Scale, params: &CacheParams) {
    let n = scale.decluster_cardinality() / 8;
    let page_size = 8 * 1024;
    println!("## Figure 12 — buffer-manager Radix-Decluster with variable-size values (N = {n})");
    let strings: Vec<String> = (0..n)
        .map(|i| format!("record-{i}-{}", "x".repeat(i % 29)))
        .collect();
    let smaller_oids: Vec<Oid> = (0..n as u64)
        .map(|r| (r.wrapping_mul(2654435761) % n as u64) as Oid)
        .collect();
    let result_positions: Vec<Oid> = (0..n as Oid).collect();
    let spec = RadixClusterSpec::optimal_partial(n, 32, params.cache_capacity());
    let clustered = radix_cluster_oids(&smaller_oids, &result_positions, spec);
    let mut clust_values = VarColumn::new();
    for &oid in clustered.keys() {
        clust_values.push_str(&strings[oid as usize]);
    }
    let window = rdx_core::decluster::choose_window_bytes(4, clustered.num_clusters(), params);

    let mut bm = BufferManager::new(page_size);
    let (placed, total_ms) = time_ms(|| {
        radix_decluster_paged(
            &clust_values,
            clustered.payloads(),
            clustered.bounds(),
            window,
            &mut bm,
        )
    });
    // Verify a sample.
    let mut checked = 0;
    for r in (0..n).step_by((n / 500).max(1)) {
        let expected = &strings[smaller_oids[r] as usize];
        assert_eq!(placed.read(&bm, r, expected.len()), expected.as_bytes());
        checked += 1;
    }
    let payload: usize = strings.iter().map(|s| s.len()).sum();
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["tuples".to_string(), format!("{n}")]);
    t.row(vec![
        "clusters".to_string(),
        format!("{}", clustered.num_clusters()),
    ]);
    t.row(vec![
        "insertion window [KB]".to_string(),
        format!("{}", window / 1024),
    ]);
    t.row(vec![
        "pages allocated".to_string(),
        format!("{}", bm.num_pages()),
    ]);
    t.row(vec![
        "page utilisation".to_string(),
        format!(
            "{:.1}%",
            100.0 * payload as f64 / (bm.num_pages() * page_size) as f64
        ),
    ]);
    t.row(vec!["three-phase decluster [ms]".to_string(), ms(total_ms)]);
    t.row(vec!["verified samples".to_string(), format!("{checked}")]);
    t.print();
    println!();
}
