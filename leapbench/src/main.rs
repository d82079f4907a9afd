//! `leapbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! leapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks every verdict, certificate
//! and witness it produces, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, measured from spans the benchmark takes around its own
//! calls into each layer (written to `.leapbench_out/` when the run
//! ends). The line before it records the run's seed, configuration,
//! core count and commit. A wrong answer fails the run (exit code 1).

mod inputs;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use leapfrog::json::{self, Value};
use leapfrog::EngineConfig;

use workloads::{Ctx, Measured};

/// One workload: its name, runner and fixed tail percentile.
struct Workload {
    name: &'static str,
    run: fn(&Ctx) -> Measured,
    /// `verdict_tail_ms` percentile. An untraced run goes on past its
    /// window until it holds [`stats::min_samples`] for it, where it is
    /// exactly the highest percentile with ten samples beyond it; with
    /// more samples it keeps more than ten beyond.
    tail: u32,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cold-table2",
        run: workloads::cold_table2,
        tail: 80,
    },
    Workload {
        name: "serve-warm",
        run: serve::serve_warm,
        tail: 95,
    },
    Workload {
        name: "refute-mutants",
        run: workloads::refute_mutants,
        tail: 80,
    },
];

/// The tail rule: a tail percentile keeps at least this many samples
/// beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order. Unless
/// [`per_layer`] computes one otherwise, a metric is the per-verdict mean
/// of the sum of that name collected in traced verdicts.
const PER_LAYER: [(&str, &str); 59] = [
    ("p4a.sum_ms", "ms"),
    ("hwgen.compile_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.cert_encode_ms", "ms"),
    ("core.cert_bytes", "bytes"),
    ("core.iterations", "count"),
    ("core.relation_size", "count"),
    ("core.scope_pairs", "count"),
    ("core.wp_generated", "count"),
    ("core.entailment_checks", "count"),
    ("core.memo_hits", "count"),
    ("core.parallel_checks", "count"),
    ("core.merge_rechecks", "count"),
    ("core.phase.generation_ms", "ms"),
    ("core.phase.guard_entailment_ms", "ms"),
    ("core.phase.cegar_round_ms", "ms"),
    ("core.phase.unattributed_ms", "ms"),
    ("logic.wp_calls", "count"),
    ("logic.wp_hits", "count"),
    ("logic.wp_hit_ratio", "ratio"),
    ("logic.wp_ms", "ms"),
    ("smt.queries", "count"),
    ("smt.cegar_rounds", "count"),
    ("smt.blast_cache_hit_rate", "ratio"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("cex.witness_ms", "ms"),
    ("cex.witness_bits", "bits"),
    ("cex.bits_minimized", "bits"),
    ("cex.replay_ms", "ms"),
    ("certcheck.parse_ms", "ms"),
    ("certcheck.reach_ms", "ms"),
    ("certcheck.wp_calls", "count"),
    ("certcheck.wp_hits", "count"),
    ("certcheck.wp_ms", "ms"),
    ("certcheck.obligations", "count"),
    ("certcheck.entails_ms", "ms"),
    ("certcheck.entails_p50_ms", "ms"),
    ("certcheck.member_obligations", "count"),
    ("certcheck.member_entails_ms", "ms"),
    ("serve.rtt_ms.check.p50", "ms"),
    ("serve.rtt_ms.check.tail", "ms"),
    ("serve.rtt_ms.verify.p50", "ms"),
    ("serve.rtt_ms.verify.tail", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.reply_bytes", "bytes"),
    ("serve.overloaded", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("error_rate", "ratio"),
    ("self_ms.bench", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.logic", "ms"),
    ("self_ms.cex", "ms"),
    ("self_ms.certcheck", "ms"),
    ("self_ms.serve", "ms"),
];

/// Span names whose summed durations give a `_ms` metric.
const SPAN_TIMED: [(&str, &str); 8] = [
    ("core.prepare", "core.prepare_ms"),
    ("core.run", "core.run_ms"),
    ("core.cert_encode", "core.cert_encode_ms"),
    ("logic.wp_sweep", "logic.wp_ms"),
    ("cex.replay", "cex.replay_ms"),
    ("certcheck.parse", "certcheck.parse_ms"),
    ("certcheck.reach", "certcheck.reach_ms"),
    ("certcheck.entails", "certcheck.entails_ms"),
];

/// Layers whose self time the traced run reports per verdict.
const SELF_TIME_LAYERS: [&str; 6] = ["bench", "core", "logic", "cex", "certcheck", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// Removes every `LEAPFROG_*` variable before any layer can read one, so
/// the explicitly built configuration is the only one in effect.
fn scrub_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LEAPFROG_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median and rule-picked tail of a per-layer latency sample (the
/// maximum when fewer than twenty samples leave no ten beyond a tail).
fn p50_and_tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let s = sorted(v);
    let tail = stats::tail_percentile(s.len(), TAIL_MIN_BEYOND).unwrap_or(100);
    (stats::percentile(&s, 50), stats::percentile(&s, tail))
}

/// The `--trace 0` metrics. On a whole-pass workload `verdict_p50_ms` is
/// the median over passes of each pass's median verdict time. Rows there
/// take clearly different times, so the pooled median of `r` rows × `k`
/// passes sits at rank `r·k/2`, the slowest sample of one row, where a
/// single slow verdict moves it.
fn end_to_end(m: &Measured, w: &Workload) -> BTreeMap<String, f64> {
    let lat = sorted(&m.latencies_ms);
    let (p50, tail) = if lat.is_empty() {
        (0.0, 0.0)
    } else if m.pass_rows == 0 {
        (stats::percentile(&lat, 50), stats::percentile(&lat, w.tail))
    } else {
        let p50 = stats::median_of_pass_medians(&m.latencies_ms, m.pass_rows);
        (p50, stats::percentile(&lat, w.tail))
    };
    BTreeMap::from([
        ("setup_s".into(), stats::median(&m.setup_s)),
        (
            "verdicts_per_s".into(),
            m.correct_verdicts as f64 / m.window_s.max(1e-9),
        ),
        ("verdict_p50_ms".into(), p50),
        ("verdict_tail_ms".into(), tail),
        ("peak_rss_mb".into(), peak_rss_mb()),
    ])
}

fn per_layer(m: &Measured) -> BTreeMap<String, f64> {
    let n = m.traced_verdicts.max(1) as f64;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        out.insert(name.into(), m.acc.get(name) / n);
    }
    // The rest replace the per-verdict means above.
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &m.spans {
        by_name
            .entry(s.name)
            .or_default()
            .push((s.end - s.start) as f64 / 1e6);
    }
    for (span, metric) in SPAN_TIMED {
        let total: f64 = by_name.get(span).map_or(0.0, |v| v.iter().sum());
        out.insert(metric.into(), total / n);
    }
    let per_setup = |name: &str| {
        m.setup_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .sum::<f64>()
            / m.setup_s.len().max(1) as f64
    };
    out.insert("p4a.sum_ms".into(), per_setup("p4a.sum"));
    out.insert("hwgen.compile_ms".into(), per_setup("hwgen.compile"));
    out.insert("serve.overloaded".into(), m.acc.get("serve.overloaded"));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.insert(
        "logic.wp_hit_ratio".into(),
        ratio(m.acc.get("logic.wp_hits"), m.acc.get("logic.wp_calls")),
    );
    out.insert(
        "smt.blast_cache_hit_rate".into(),
        ratio(
            m.acc.get("smt.blast_cache_hits"),
            m.acc.get("smt.blast_cache_lookups"),
        ),
    );
    let entails = by_name
        .get("certcheck.entails")
        .cloned()
        .unwrap_or_default();
    out.insert("certcheck.entails_p50_ms".into(), stats::median(&entails));
    for kind in ["check", "verify"] {
        let (p50, tail) = p50_and_tail(m.rtt_ms.get(kind).map_or(&[][..], |v| &v[..]));
        out.insert(format!("serve.rtt_ms.{kind}.p50"), p50);
        out.insert(format!("serve.rtt_ms.{kind}.tail"), tail);
    }
    let checks = m.acc.get("serve.checks");
    for name in ["serve.engine_ms", "serve.overhead_ms", "serve.reply_bytes"] {
        out.insert(name.into(), ratio(m.acc.get(name), checks));
    }
    let profile = trace::profile(&m.spans);
    out.insert("trace.coverage".into(), profile.coverage());
    out.insert(
        "trace.overhead_ms".into(),
        mean(&m.traced_latencies_ms) - mean(&m.latencies_ms),
    );
    out.insert(
        "trace.spans".into(),
        (m.spans.len() + m.setup_spans.len()) as f64,
    );
    out.insert(
        "error_rate".into(),
        stats::error_rate(m.attempted, m.failed),
    );
    for layer in SELF_TIME_LAYERS {
        let ns = profile.self_ns.get(layer).copied().unwrap_or(0);
        out.insert(format!("self_ms.{layer}"), ns as f64 / 1e6 / n);
    }
    out
}

/// `{name: {"value", "unit"}}` for each of `names`, in order.
fn metrics_value(values: &BTreeMap<String, f64>, names: &[(&str, &str)]) -> Value {
    Value::Obj(
        names
            .iter()
            .map(|&(n, u)| {
                let v = values.get(n).copied().unwrap_or(0.0);
                // `+ 0.0` turns the `-0.0` an empty float sum gives into 0.
                let v = if v.is_finite() { v + 0.0 } else { 0.0 };
                let metric = json::obj(vec![("value", Value::Num(v)), ("unit", str_value(u))]);
                (n.to_string(), metric)
            })
            .collect(),
    )
}

fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// A JSON value on one line. `render` pretty-prints, and a string never
/// holds a raw newline, so dropping each line's indentation is enough.
fn one_line(v: &Value) -> String {
    v.render().lines().map(str::trim_start).collect()
}

/// Median milliseconds of five timings of a fixed integer loop. It is the
/// same work in every run and shares no code with the program, so it
/// tells a slow host from a slow program.
fn host_probe_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut rng = inputs::Rng::new(0, 0);
            let x = (0..2_000_000).fold(0u64, |x, _| x ^ rng.next_u64());
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

fn write_spans(args: &Args, m: &Measured) -> std::io::Result<String> {
    let dir = std::path::Path::new(".leapbench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let mut all = m.setup_spans.clone();
    // Set-up spans come first; shift the verdict spans' parent links.
    let base = all.len();
    all.extend(m.spans.iter().cloned().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
    // One span per line, so a large file stays easy to scan.
    let lines: Vec<String> = all
        .iter()
        .enumerate()
        .map(|(i, s)| one_line(&trace::span_value(i, s)))
        .collect();
    std::fs::write(&path, format!("[\n{}\n]\n", lines.join(",\n")))?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("leapbench: {e}");
            eprintln!("usage: leapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "leapbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let scrubbed = scrub_environment();
    leapfrog_obs::set_metrics_enabled(true);
    leapfrog_obs::trace::set_enabled(false);
    leapfrog_obs::trace::collector().set_slow_threshold_ms(None);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        // The traced run reports no tail, so it needs no minimum.
        min_samples: if args.trace {
            0
        } else {
            stats::min_samples(workload.tail, TAIL_MIN_BEYOND)
        },
        epoch: Instant::now(),
        // Built explicitly, never from the environment. One engine
        // thread: on a 2-core host two threads were no faster, and only
        // one thread gives a peak memory that repeats run to run.
        config: EngineConfig::new().threads(1),
    };
    let probe_before = host_probe_ms();
    let m = (workload.run)(&ctx);
    let host_probe = [probe_before, host_probe_ms()];

    let spans_file = if args.trace {
        match write_spans(&args, &m) {
            Ok(p) => p,
            Err(e) => format!("not written: {e}"),
        }
    } else {
        String::new()
    };
    let samples = m.latencies_ms.len();
    let beyond = if samples == 0 {
        0
    } else {
        stats::samples_beyond(samples, workload.tail)
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows = m
        .row_ms
        .iter()
        .map(|(k, v)| {
            let s = sorted(v);
            let summary = [s[0], stats::median(&s), s[s.len() - 1]];
            (k.clone(), Value::Arr(summary.map(Value::Num).to_vec()))
        })
        .collect();
    let strings = |v: &[String]| Value::Arr(v.iter().map(|s| str_value(s)).collect());
    let info = json::obj(vec![
        ("workload", str_value(workload.name)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("commit", str_value(&commit())),
        ("nproc", json::num(nproc)),
        ("engine_threads", json::num(m.engine_threads)),
        ("clients", json::num(m.clients)),
        ("config", str_value(&format!("{:?}", ctx.config))),
        ("scrubbed_env", strings(&scrubbed)),
        ("verdict_samples", json::num(samples)),
        ("min_samples", json::num(ctx.min_samples)),
        ("traced_verdicts", Value::Num(m.traced_verdicts as f64)),
        ("tail_percentile", Value::Num(workload.tail.into())),
        ("samples_beyond_tail", json::num(beyond)),
        (
            "tail_rule_met",
            Value::Bool(beyond >= TAIL_MIN_BEYOND || args.trace),
        ),
        (
            "error_rate",
            Value::Num(stats::error_rate(m.attempted, m.failed)),
        ),
        ("failures", strings(&m.failures)),
        (
            "host_probe_ms_before_after",
            Value::Arr(host_probe.map(Value::Num).to_vec()),
        ),
        ("spans_file", str_value(&spans_file)),
        ("row_min_p50_max_ms", Value::Obj(rows)),
    ]);
    println!("{}", one_line(&json::obj(vec![("run", info)])));

    let correct = m.failed == 0 && m.attempted > 0;
    let metrics = if args.trace {
        metrics_value(&per_layer(&m), &PER_LAYER)
    } else {
        metrics_value(&end_to_end(&m, workload), &END_TO_END)
    };
    let result = json::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(m.attempted.max(1) as f64)),
        ("failed", Value::Num(m.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", one_line(&result));
    if !correct {
        for f in &m.failures {
            eprintln!("leapbench: FAILED: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names (and units) of one `BENCHMARK.json` section, in order.
    fn section(doc: &Value, key: &str) -> Vec<(String, Option<String>)> {
        json::as_arr(json::get(doc, key).unwrap())
            .unwrap()
            .iter()
            .map(|entry| {
                let name = json::as_str(json::get(entry, "name").unwrap()).unwrap();
                let unit = json::get(entry, "unit")
                    .ok()
                    .map(|u| json::as_str(u).unwrap());
                (name.to_string(), unit.map(str::to_string))
            })
            .collect()
    }

    fn named(names: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
        names
            .iter()
            .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), None))
            .collect();
        assert_eq!(section(&doc, "workloads"), workloads);
        assert_eq!(section(&doc, "end_to_end"), named(&END_TO_END));
        assert_eq!(section(&doc, "per_layer"), named(&PER_LAYER));
    }

    #[test]
    fn every_untraced_run_keeps_ten_samples_beyond_its_tail() {
        // `stats` checks that the rule holds from `min_samples` on for
        // every tail from p50 to p99.
        assert!(WORKLOADS.iter().all(|w| (50..=99).contains(&w.tail)));
    }

    #[test]
    fn output_lines_are_single_line_json() {
        let values = BTreeMap::from([
            ("setup_s".to_string(), 0.8127),
            ("verdicts_per_s".into(), -0.0),
        ]);
        let line = one_line(&json::obj(vec![
            ("correct", Value::Bool(true)),
            ("note", str_value("a \"quoted\"\nline")),
            ("metrics", metrics_value(&values, &END_TO_END[..2])),
        ]));
        assert!(!line.contains('\n'));
        let back = json::parse(&line).unwrap();
        let metrics = json::get(&back, "metrics").unwrap();
        let setup = json::get(metrics, "setup_s").unwrap();
        assert_eq!(json::get(setup, "value").unwrap(), &Value::Num(0.8127));
        assert_eq!(
            json::as_str(json::get(setup, "unit").unwrap()).unwrap(),
            "s"
        );
        let rate = json::get(json::get(metrics, "verdicts_per_s").unwrap(), "value").unwrap();
        assert_eq!(rate, &Value::Num(0.0));
        assert!(!line.contains("-0"));
    }
}
