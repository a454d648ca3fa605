//! The environment stamp and the process's peak resident set, read from
//! the kernel's `/proc` and `/sys` pseudo-files.

use rdx_api::CacheParams;
use rdx_bench::baseline::EnvMeta;
use std::fs::read_to_string;

/// Peak resident set of this process so far (`VmHWM`), in MB (10⁶ bytes);
/// NaN where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// The host CPU's model name, and the level and size of each of cpu 0's
/// data and unified caches, in bytes.
fn cpu() -> (String, Vec<(u32, u64)>) {
    let model = read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let caches = (0..)
        .map_while(|i| {
            let field = |f: &str| read_to_string(format!("{dir}/index{i}/{f}")).ok();
            Some((field("level")?, field("type")?, field("size")?))
        })
        .filter(|(_, kind, _)| kind.trim() != "Instruction")
        .filter_map(|(level, _, size)| {
            let kib: u64 = size.trim().strip_suffix('K')?.parse().ok()?;
            Some((level.trim().parse().ok()?, kib * 1024))
        })
        .collect();
    (model, caches)
}

/// The stamp printed with every result: the shared `EnvMeta` (nproc,
/// simulated cache geometry, commit) plus the host CPU, its caches and the
/// workload seed.  One run is one sample.
pub fn stamp_json(params: &CacheParams, seed: u64) -> String {
    let meta = EnvMeta::capture(params, 1);
    let (model, caches) = cpu();
    let caches: Vec<String> = caches
        .iter()
        .map(|(level, bytes)| format!("{{\"level\": {level}, \"bytes\": {bytes}}}"))
        .collect();
    format!(
        "{{{}, \"cpu_model\": \"{}\", \"host_caches\": [{}], \"seed\": {seed}}}",
        meta.to_json(""),
        model.replace(['"', '\\'], ""),
        caches.join(", "),
    )
}
