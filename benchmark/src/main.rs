//! The repo benchmark: five workloads, end-to-end and per-layer metrics, a
//! traced layer replay. See README.md for what each workload and metric is
//! for, and ../BENCHMARK.json for the names, units and regression bounds.
//!
//! ```text
//! seqfm-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! seqfm-benchmark trace [--workload W] [--seed N] [--seconds S]
//! seqfm-benchmark aa    [--sets 2] [--seed N] [--seconds S]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). Without it, every workload is run in a child process of its
//! own, so set-up time, peak RSS, thread-locals and the kernel pool start
//! fresh for each.

mod fixture;
mod harness;
mod json;
mod layers;
mod online;
mod retrieve;
mod scoring;
mod train;

use fixture::Opts;
use harness::{Outcome, Tracer};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

const WORKLOADS: [&str; 5] = ["slate", "burst", "retrieve", "online", "train"];
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;
/// A host canary that moves more than this between the start and the end of
/// a workload marks its numbers `host_disturbed`.
const CALIB_TOLERANCE: f64 = 0.10;

/// End-to-end metrics, reported by every workload on untraced runs.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("fresh_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported on traced runs. A layer that is not on a
/// workload's path reports 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.request_p99_us", "us"),
    ("serve.request_n", "count"),
    ("serve.engine_overhead_us", "us"),
    ("serve.stateful_inline_us", "us"),
    ("serve.replay_us", "us"),
    ("serve.store.snapshot_us", "us"),
    ("serve.store.append_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.expand_us", "us"),
    ("serve.score_request_us", "us"),
    ("serve.coalesce.batch_us_per_req", "us"),
    ("serve.coalesce.group_size", "count"),
    ("serve.allocs_per_request", "count"),
    ("serve.publish_us", "us"),
    ("serve.index_settle_ms", "ms"),
    ("core.history_view_us", "us"),
    ("core.score_with_view_us", "us"),
    ("core.score_us", "us"),
    ("core.score_with_view_fast_us", "us"),
    ("core.rows_per_s", "1/s"),
    ("core.score_catalog_block_us", "us"),
    ("core.query_bounds_us", "us"),
    ("core.freeze_us", "us"),
    ("tensor.matmul_nn_gflops", "GFLOP/s"),
    ("tensor.matmul_nt_gflops", "GFLOP/s"),
    ("tensor.attention_us", "us"),
    ("retrieval.build_ms", "ms"),
    ("retrieval.retrieve_ms", "ms"),
    ("retrieval.brute_ms", "ms"),
    ("retrieval.blocks_scored", "count"),
    ("retrieval.blocks_pruned", "count"),
    ("retrieval.blocks_repaired", "count"),
    ("retrieval.items_scored", "count"),
    ("retrieval.skip_ratio", "ratio"),
    ("retrieval.rebuild_ms", "ms"),
    ("retrieval.delta_reused_share", "ratio"),
    ("retrieval.brute_fallback_share", "ratio"),
    ("parallel.queue_roundtrip_us", "us"),
    ("parallel.pool_scope_us", "us"),
    ("parallel.slot_load_ns", "ns"),
    ("train.pump_ms", "ms"),
    ("train.ingest_us_per_event", "us"),
    ("train.steps", "count"),
    ("train.publishes", "count"),
    ("train.final_loss", "loss"),
    ("autograd.forward_us", "us"),
    ("autograd.backward_us", "us"),
    ("nn.adam_step_us", "us"),
    ("nn.adam_sparse_step_us", "us"),
    ("data.generate_ms", "ms"),
    ("data.build_instance_us", "us"),
    ("bench.calib_spin_us", "us"),
    ("bench.calib_simd_us", "us"),
    ("bench.trace_overhead_share", "ratio"),
];

struct Cli {
    mode: String,
    workload: Option<String>,
    sets: usize,
    opts: Opts,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1).peekable();
    let mode = match args.peek() {
        Some(a) if !a.starts_with("--") => args.next().expect("peeked"),
        _ => "run".to_string(),
    };
    if !matches!(mode.as_str(), "run" | "trace" | "aa") {
        return Err(format!("unknown command `{mode}` (run, trace, aa)"));
    }
    let mut cli = Cli {
        workload: None,
        sets: 2,
        opts: Opts { seed: 1, seconds: DEFAULT_SECONDS, trace: mode == "trace", smoke: false },
        mode,
    };
    let mut seconds_given = false;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` ({})", WORKLOADS.join(", ")));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.opts.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.opts.seconds = s;
                seconds_given = true;
            }
            "--trace" => cli.opts.trace = value("0 or 1")? == "1",
            "--sets" => {
                cli.sets = value("a number")?.parse().map_err(|e| format!("--sets: {e}"))?
            }
            "--smoke" => cli.opts.smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cli.opts.smoke && !seconds_given {
        cli.opts.seconds = SMOKE_SECONDS;
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("seqfm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (cli.mode.as_str(), &cli.workload) {
        ("aa", _) => aa(&cli),
        (_, Some(w)) => run_here(w, &cli.opts),
        (_, None) => run_all(&cli.opts),
    }
}

/// Writes the trace and puts the replay table into the notes.
pub fn finish_trace(workload: &str, tracer: &Tracer, out: &mut Outcome) {
    let path = harness::out_dir().join(format!("trace-{workload}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!("{} spans → {}", tracer.spans.len(), path.display())),
        Err(e) => out.fail(format!("writing {}: {e}", path.display())),
    }
    out.notes.push(format!(
        "{:<28} {:>7} {:>12} {:>11}",
        "replay span", "count", "p50_us", "self share"
    ));
    for (name, count, p50, share) in tracer.replay_table() {
        out.notes.push(format!("{name:<28} {count:>7} {p50:>12.2} {share:>11.3}"));
    }
}

/// One workload, in this process. The last line printed is the result.
fn run_here(workload: &str, opts: &Opts) -> ExitCode {
    // One generator thread, one engine worker, the kernel pool at 1, all on
    // one CPU: the sandbox's two vCPUs share one core's FMA units (two
    // concurrent FMA loops each run at under half speed), so a second one
    // buys no throughput, and it makes timings depend on how threads happen
    // to overlap and on what a wake-up across vCPUs costs at that moment (see
    // `pin_to_one_cpu`). Both set before any thread or pool exists.
    std::env::set_var("SEQFM_WORKERS", "1");
    let pinned = harness::pin_to_one_cpu();
    harness::now_ns();
    let calib_before = [harness::calib_spin_us(), harness::calib_simd_us()];
    let mut out = match workload {
        "slate" => scoring::run(&scoring::SLATE, opts),
        "burst" => scoring::run(&scoring::BURST, opts),
        "retrieve" => retrieve::run(opts),
        "online" => online::run(opts),
        "train" => train::run(opts),
        other => unreachable!("`{other}` passed argument validation"),
    };
    let calib_after = [harness::calib_spin_us(), harness::calib_simd_us()];
    out.layer("bench.calib_spin_us", calib_before[0]);
    out.layer("bench.calib_simd_us", calib_before[1]);

    let (table, values): (&[(&str, &str)], BTreeMap<&str, f64>) = if opts.trace {
        (PER_LAYER, out.layers.clone())
    } else {
        let e2e = [
            ("setup_s", out.setup_s),
            ("ops_per_s", out.ops_per_s),
            ("op_p50_us", out.op_p50_us),
            ("fresh_p50_us", out.fresh_p50_us),
            ("peak_rss_mb", harness::peak_rss_mb()),
        ];
        (END_TO_END, e2e.into_iter().collect())
    };
    for name in values.keys() {
        assert!(table.iter().any(|(n, _)| n == name), "metric `{name}` is not in the table");
    }
    if !opts.trace {
        for (name, v) in &values {
            out.check(v.is_finite() && *v > 0.0, || format!("{workload}: {name} = {v}"));
        }
    }

    println!(
        "== {workload} (seed {}, {} s, {}{}) ==",
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" },
        if opts.smoke { ", smoke" } else { "" }
    );
    match pinned {
        Some(cpu) => {
            println!("  threads: generator + 1 engine worker, kernel pool 1, pinned to cpu {cpu}")
        }
        None => println!("  threads: generator + 1 engine worker, kernel pool 1, NOT pinned"),
    }
    println!(
        "  ops attempted {}  succeeded {}  failed {}",
        out.attempted,
        out.attempted - out.failed.min(out.attempted),
        out.failed
    );
    for (name, unit) in table {
        println!("  {name:<34} {:>16.4} {unit}", values.get(name).copied().unwrap_or(0.0));
    }
    for note in &out.notes {
        println!("  {note}");
    }
    for failure in &out.failures {
        println!("  FAILED: {failure}");
    }
    for (name, before, after) in [
        ("bench.calib_spin_us", calib_before[0], calib_after[0]),
        ("bench.calib_simd_us", calib_before[1], calib_after[1]),
    ] {
        let drift = after / before - 1.0;
        if drift.abs() > CALIB_TOLERANCE {
            println!("  host_disturbed: {name} {before:.1} → {after:.1} ({:+.1} %)", drift * 100.0);
        }
    }

    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run reported.
struct ChildRun {
    ok: bool,
    disturbed: bool,
    metrics: BTreeMap<String, f64>,
}

/// Re-executes this binary for one workload, forwards what it prints, and
/// parses its result line.
fn run_child(workload: &str, opts: &Opts) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let failed = ChildRun { ok: false, disturbed: false, metrics: BTreeMap::new() };
    let output = match cmd.spawn().and_then(|child| child.wait_with_output()) {
        Ok(output) => output,
        Err(e) => {
            println!("  FAILED: could not run the {workload} child: {e}");
            return failed;
        }
    };
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let result = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("{line}");
    }
    let Ok(parsed) = json::parse(result) else {
        println!("  FAILED: the {workload} child printed no result ({})", output.status);
        return failed;
    };
    let metrics = match parsed.get("metrics") {
        Some(json::Value::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    ChildRun {
        ok: output.status.success() && parsed.get("correct") == Some(&json::Value::Bool(true)),
        disturbed: lines.iter().any(|l| l.contains("host_disturbed")),
        metrics,
    }
}

/// Every workload, each in a child process of its own.
fn run_all(opts: &Opts) -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        ok &= run_child(workload, opts).ok;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("seqfm-benchmark: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, from the checkout root or from inside the package.
fn manifest() -> Result<json::Value, String> {
    let text = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in . or ..")?;
    json::parse(&text)
}

/// A/A mode: the full untraced set `--sets` times over, alternating the
/// workload order, then per workload × end-to-end metric the widest
/// relative difference between sets beside its bound. A `host_disturbed`
/// run is made again once; every run made is printed. Exits non-zero when a
/// difference exceeds its bound or the manifest disagrees with this binary.
fn aa(cli: &Cli) -> ExitCode {
    let manifest = match manifest() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("seqfm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let declared = |key: &str| -> Vec<(String, String)> {
        let metrics = manifest.get(key).map(json::Value::as_array).unwrap_or_default();
        metrics
            .iter()
            .filter_map(|m| {
                Some((m.get("name")?.as_str()?.into(), m.get("unit")?.as_str()?.into()))
            })
            .collect()
    };
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<(String, String)> =
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        if declared(key) != ours {
            println!("BENCHMARK.json `{key}` does not list this binary's metrics and units");
            ok = false;
        }
    }
    let bounds: BTreeMap<String, f64> = manifest
        .get("end_to_end")
        .map(json::Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect();

    let mut opts = cli.opts.clone();
    opts.trace = false;
    let mut runs: BTreeMap<&str, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    for set in 0..cli.sets.max(2) {
        let mut order = WORKLOADS.to_vec();
        if set % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            println!("-- set {set}: {workload}");
            let mut run = run_child(workload, &opts);
            if run.disturbed {
                println!("-- set {set}: {workload} again (host_disturbed)");
                run = run_child(workload, &opts);
            }
            ok &= run.ok;
            runs.entry(workload).or_default().push(run.metrics);
        }
    }

    println!(
        "{:<10} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "min", "max", "diff", "bound"
    );
    for workload in WORKLOADS {
        for &(name, _) in END_TO_END {
            let values: Vec<f64> =
                runs[workload].iter().filter_map(|m| m.get(name).copied()).collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let diff = (hi - lo) / lo;
            let bound = bounds.get(name).copied().unwrap_or(0.0);
            let within = values.len() >= 2 && diff <= bound;
            ok &= within;
            println!(
                "{workload:<10} {name:<14} {lo:>14.4} {hi:>14.4} {diff:>9.4} {bound:>7.2}{}",
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
