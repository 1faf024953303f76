//! Benchmark of the replidedup dump, restore and heal collectives.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hpccg-8|nodeloss-96> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), a stamp
//! line, and as its last line one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `NOTES.md`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use replidedup_buf::global_pool;

use replidedup_perfbench::layers::{self, Cycle};
use replidedup_perfbench::metrics;
use replidedup_perfbench::stats::{block_tail, median};
use replidedup_perfbench::workload::{
    self, node_loss, pool_width, run_lane, Bed, Spec, COLL, STRATEGIES,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Rank calls pooled per block of the tail metrics (see
/// [`block_tail`]): about ten per percentile point near p90.
const TAIL_BLOCK: usize = 100;

/// Cycles every run completes, however short `--seconds` is.
const MIN_CYCLES: u64 = 3;

/// The number of cycles a run of `seconds` does: as many as fit in
/// `seconds` on the reference host, at least [`MIN_CYCLES`]. The count
/// depends on the arguments alone, never on the clock, so a seed always
/// gives the same operations and the same failures.
fn planned_cycles(spec: Spec, seconds: f64) -> u64 {
    ((seconds / spec.cycle_s).round() as u64).max(MIN_CYCLES)
}

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                spec = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("expected one of {names:?}"))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("expected a non-negative number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how this result was produced, so results from different
/// hosts or toolchains are never compared silently.
fn stamp(args: &Args) -> String {
    let commit = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"stamp\": {{\"workload\": {:?}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"pool_width\": {}, \"git_commit\": {:?}, \"rustc\": {:?}}}}}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        pool_width(),
        commit.as_deref().unwrap_or("unknown"),
        command_output("rustc", &["-V"]).as_deref().unwrap_or("unknown"),
    )
}

fn run(args: &Args) -> ExitCode {
    let spec = args.spec;
    println!("{}", stamp(args));

    let mut setup_secs = Vec::new();
    let mut bed = None;
    for _ in 0..SETUPS {
        drop(bed.take());
        let t = Instant::now();
        bed = Some(Bed::setup(spec, args.seed));
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let bed = bed.expect("at least one set-up ran");

    let pool_before = global_pool().stats();
    let start = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    let planned = planned_cycles(spec, args.seconds);
    for generation in 1..=planned {
        // The traced run alternates tracing so its cost can be measured.
        let traced = args.trace && generation % 2 == 0;
        let damage = node_loss(bed.victim(generation));
        let lanes = (0..STRATEGIES.len())
            .map(|lane| run_lane(&bed, lane, generation, traced, &damage))
            .collect();
        let cycle = Cycle { traced, lanes };
        let per_lane: Vec<String> = cycle
            .lanes
            .iter()
            .map(|l| l.failed(spec.ranks).to_string())
            .collect();
        println!(
            "cycle {generation}: node {} lost, failed rank-operations per strategy {}",
            bed.victim(generation),
            per_lane.join("/")
        );
        cycles.push(cycle);
    }
    let pool_after = global_pool().stats();

    let mut attempted = 0;
    let mut failed = 0;
    let mut violations = Vec::new();
    let mut errors: BTreeMap<String, u64> = BTreeMap::new();
    for lane in cycles.iter().flat_map(|c| &c.lanes) {
        attempted += lane.attempted(spec.ranks);
        failed += lane.failed(spec.ranks);
        violations.extend(lane.violations.iter().cloned());
        let heal_error = lane.heal.first_error.clone().or_else(|| {
            let r = lane.heal.report.as_ref().filter(|r| !r.is_fully_healed())?;
            Some(format!(
                "heal incomplete: {} unrepairable chunks, {} manifests, {} blobs, {} stripes",
                r.unrepairable_chunks.len(),
                r.unrepairable_manifests.len(),
                r.unrepairable_blobs.len(),
                r.unrepairable_stripes.len()
            ))
        });
        for e in [
            &lane.dump.first_error,
            &heal_error,
            &lane.restore.first_error,
        ]
        .into_iter()
        .flatten()
        {
            *errors.entry(error_kind(e)).or_default() += 1;
        }
    }
    let failed_share = failed as f64 / attempted as f64;
    println!(
        "{}: {} cycles in {:.1} s, {failed} of {attempted} rank-operations failed (failed_share {failed_share:.4})",
        spec.name,
        cycles.len(),
        start.elapsed().as_secs_f64()
    );
    for (e, n) in &errors {
        println!("failure ({n} lane steps): {e}");
    }
    for v in &violations {
        println!("incorrect: {v}");
    }

    let (table, values) = if args.trace {
        let mut values = layers::measure(&bed, &cycles, planned);
        let hits = pool_after.hits - pool_before.hits;
        let misses = pool_after.misses - pool_before.misses;
        let takes = (hits + misses).max(1);
        values.insert("buf.pool_hit_ratio".into(), hits as f64 / takes as f64);
        values.insert("failed_share".into(), failed_share);
        let values = values.into_iter().map(|(k, v)| (k, (v, None))).collect();
        (metrics::per_layer(), values)
    } else {
        (metrics::end_to_end(), end_to_end(&setup_secs, &cycles))
    };

    let mut json = Vec::new();
    for (name, unit) in &table {
        let Some(&(value, ref note)) = values.get(name) else {
            eprintln!("perfbench: metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a number");
            return ExitCode::FAILURE;
        }
        println!(
            "metric {name} = {value} {unit}{}",
            note.as_deref().unwrap_or("")
        );
        json.push(format!(
            "{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        violations.is_empty(),
        json.join(", ")
    );
    ExitCode::SUCCESS
}

/// An error message with chunk fingerprints and rank ids masked, so
/// failures of one kind are counted together.
fn error_kind(message: &str) -> String {
    let mut words: Vec<&str> = message.split(' ').collect();
    for i in 0..words.len() {
        let fingerprint = words[i].len() >= 8 && words[i].chars().all(|c| c.is_ascii_hexdigit());
        if fingerprint || (i > 0 && words[i - 1] == "rank") {
            words[i] = "#";
        }
    }
    words.join(" ")
}

type Values = BTreeMap<String, (f64, Option<String>)>;

fn end_to_end(setup_secs: &[f64], cycles: &[Cycle]) -> Values {
    let mut v = Values::new();
    let mut med = |name: String, xs: Vec<f64>| {
        if let Some(m) = median(&xs) {
            v.insert(name, (m, Some(format!(" (median of {})", xs.len()))));
        }
    };
    med("setup_s".into(), setup_secs.to_vec());
    let lanes = |i: usize| cycles.iter().map(move |c| &c.lanes[i]);
    for (i, (label, _)) in STRATEGIES.iter().enumerate() {
        med(
            format!("dump_s.{label}"),
            lanes(i).map(|l| l.dump.wall).collect(),
        );
        med(
            format!("restore_s.{label}"),
            lanes(i).map(|l| l.restore.wall).collect(),
        );
        med(
            format!("heal_s.{label}"),
            lanes(i).map(|l| l.heal.wall).collect(),
        );
    }
    med(
        "wire_bytes.coll-dedup".into(),
        lanes(COLL).map(|l| l.wire_bytes as f64).collect(),
    );
    med(
        "stored_ratio.coll-dedup".into(),
        lanes(COLL)
            .map(|l| l.device_bytes as f64 / l.input_bytes as f64)
            .collect(),
    );
    // Tails over every rank's time blocked in the call.
    let tails = [
        (
            "dump_tail_s.coll-dedup",
            lanes(COLL)
                .map(|l| l.dump.rank_secs.clone())
                .collect::<Vec<_>>(),
        ),
        (
            "restore_tail_s.coll-dedup",
            lanes(COLL).map(|l| l.restore.rank_secs.clone()).collect(),
        ),
    ];
    for (name, ops) in tails {
        if let Some((pct, value, size, blocks)) = block_tail(&ops, TAIL_BLOCK) {
            let note = format!(" (p{pct:.1} of {size} rank calls, median of {blocks} blocks)");
            v.insert(name.into(), (value, Some(note)));
        }
    }
    if let Some(rss) = peak_rss_mib() {
        v.insert("peak_rss_mib".into(), (rss, None));
    }
    v
}
