//! `kavbench` — the in-process half of the `kav` benchmark.
//!
//! ```text
//! kavbench gen --family stream|deep-stale --keys K --n OPS_PER_KEY --k K --seed S
//!              --counts FILE [--binary FILE] [--ndjson FILE]
//!              [--one-binary FILE] [--one-ndjson FILE] [--one-counts FILE]
//! kavbench trace --command stream|serve --input FILE --format binary|ndjson
//!                --counts FILE --keys K --seed S --seconds T --scratch DIR
//!                --shards N --workers N --checkpoint-every OPS --spans FILE
//! ```
//!
//! `gen` writes a workload's input from the generator behind
//! `kav gen --workload stream`, plus a one-record input of the same
//! format and the per-key operation counts (`key ops` lines) that every
//! report is checked against.
//!
//! `trace` repeats, until `--seconds` have passed, one untraced and one
//! traced in-process run of the workload's command path, a traced
//! single-threaded replay, and traced probes of the layers that path does
//! not reach. It writes the last iteration's spans to `--spans` and
//! prints one JSON line: the per-layer metrics (medians over iterations),
//! the operations attempted and the operations that failed the check.

mod layers;
mod spans;

use kav_history::frame;
use kav_history::ndjson::{self, StreamRecord};
use kav_workloads::{
    deep_stale_stream, streaming_workload, DeepStaleConfig, StreamingWorkloadConfig,
};
use layers::{
    failed_ops, CheckpointPlan, Command, Expected, Format, Input, ProbeInput, Res, PATH, PROBE,
    REPLAY,
};
use spans::{Ledger, Trace};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Operations in the probe stream that runs the layers a workload's
/// command path does not reach.
const PROBE_OPS: usize = 1 << 17;

/// `--name value` flags.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Res<Flags> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn need(&self, name: &str) -> Res<&str> {
        self.get(name)
            .ok_or_else(|| format!("missing --{name}").into())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Res<T> {
        match (self.get(name), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{name}: not a number: {v:?}").into()),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("missing --{name}").into()),
        }
    }
}

fn generate(
    family: &str,
    keys: u64,
    ops_per_key: usize,
    k: u64,
    seed: u64,
) -> Res<Vec<StreamRecord>> {
    Ok(match family {
        "stream" => streaming_workload(StreamingWorkloadConfig {
            keys,
            ops_per_key,
            k,
            seed,
            ..Default::default()
        }),
        "deep-stale" => deep_stale_stream(DeepStaleConfig {
            keys,
            ops_per_key,
            k,
            seed,
            ..Default::default()
        }),
        other => return Err(format!("unknown --family {other:?}").into()),
    })
}

fn counts(records: &[StreamRecord]) -> Expected {
    let mut expected = Expected::new();
    for record in records {
        *expected.entry(record.key).or_default() += 1;
    }
    expected
}

fn write_counts(path: &str, expected: &Expected) -> Res<()> {
    let text: String = expected
        .iter()
        .map(|(key, ops)| format!("{key} {ops}\n"))
        .collect();
    std::fs::write(path, text)?;
    Ok(())
}

fn read_counts(path: &str) -> Res<Expected> {
    let mut expected = Expected::new();
    for line in std::fs::read_to_string(path)?.lines() {
        let (key, ops) = line
            .split_once(' ')
            .ok_or_else(|| format!("{path}: bad line {line:?}"))?;
        expected.insert(key.parse()?, ops.parse()?);
    }
    Ok(expected)
}

fn gen(flags: &Flags) -> Res<()> {
    let records = generate(
        flags.get("family").unwrap_or("stream"),
        flags.num("keys", None)?,
        flags.num("n", None)?,
        flags.num("k", Some(2))?,
        flags.num("seed", None)?,
    )?;
    let one = &records[..1];
    if let Some(path) = flags.get("binary") {
        frame::write_frames(path, &records)?;
    }
    if let Some(path) = flags.get("ndjson") {
        ndjson::write_stream(path, &records)?;
    }
    if let Some(path) = flags.get("one-binary") {
        frame::write_frames(path, one)?;
    }
    if let Some(path) = flags.get("one-ndjson") {
        ndjson::write_stream(path, one)?;
    }
    if let Some(path) = flags.get("one-counts") {
        write_counts(path, &counts(one))?;
    }
    write_counts(flags.need("counts")?, &counts(&records))
}

fn probe_input(keys: u64, seed: u64, scratch: &Path) -> Res<ProbeInput> {
    let records = generate("stream", keys, (PROBE_OPS / keys as usize).max(2), 2, seed)?;
    let mut frames = Vec::new();
    let mut writer = frame::FrameWriter::new(&mut frames);
    for record in &records {
        writer.write_record(record)?;
    }
    writer.finish()?;
    let mut ndjson = Vec::new();
    let mut writer = ndjson::StreamWriter::new(&mut ndjson);
    for record in &records {
        writer.write_record(record)?;
    }
    writer.finish()?;
    Ok(ProbeInput {
        expected: counts(&records),
        records,
        frames,
        ndjson,
        checkpoint: scratch.join("probe.ckpt"),
    })
}

/// One traced iteration's per-layer figures.
fn layer_metrics(
    ledger: &Ledger,
    path: &layers::PathOutcome,
    replay: &layers::ReplayStats,
    probe: &layers::ProbeOutcome,
    replay_ms: f64,
) -> BTreeMap<&'static str, f64> {
    let any = [PATH, REPLAY, PROBE];
    let path_or_probe = [PATH, PROBE];
    let mut m = BTreeMap::new();
    let ns_per_op = |phases: &[&'static str], name| ledger.first(phases, name).self_ns_per_op();
    m.insert(
        "history.frame.decode_ns_per_op",
        ns_per_op(&any, "history.frame.decode"),
    );
    m.insert(
        "history.ndjson.decode_ns_per_op",
        ns_per_op(&any, "history.ndjson.decode"),
    );
    m.insert(
        "history.ndjson.reader_ns_per_op",
        ns_per_op(&path_or_probe, "history.ndjson.reader"),
    );
    m.insert(
        "core.stream.pipeline.push_ns_per_op",
        ns_per_op(&path_or_probe, "core.stream.pipeline.push"),
    );
    m.insert(
        "core.stream.pipeline.finish_ms",
        ledger
            .first(&path_or_probe, "core.stream.pipeline.finish")
            .mean_ms(),
    );
    m.insert(
        "core.stream.online.build_ns_per_op",
        ns_per_op(&[REPLAY], "core.stream.online.push"),
    );
    m.insert(
        "core.stream.online.replay_ns_per_op",
        replay_ms * 1e6 / replay.ops.max(1) as f64,
    );
    m.insert("core.stream.online.segments", replay.segments as f64);
    m.insert(
        "core.stream.online.ops_per_segment",
        replay.ops as f64 / replay.segments.max(1) as f64,
    );
    m.insert(
        "core.stream.online.peak_resident_ops",
        replay.peak_resident_ops as f64,
    );
    m.insert(
        "core.stream.online.peak_retired",
        replay.peak_retired as f64,
    );
    let verify = ledger.first(&[REPLAY], "core.fzf.verify");
    m.insert(
        "core.fzf.verify_ns_per_op",
        verify.self_ns as f64 / replay.ops.max(1) as f64,
    );
    m.insert("core.fzf.calls", verify.calls as f64);
    m.insert(
        "core.fzf.decided_frac",
        replay.decided as f64 / verify.calls.max(1) as f64,
    );
    m.insert(
        "core.stream.checkpoint.snapshot_ms",
        ledger
            .first(&path_or_probe, "core.stream.pipeline.snapshot")
            .mean_ms(),
    );
    m.insert(
        "core.stream.checkpoint.write_ms",
        ledger
            .first(&path_or_probe, "core.stream.checkpoint.write")
            .mean_ms(),
    );
    let ckpt = if path.checkpoints.writes > 0 {
        path.checkpoints
    } else {
        probe.checkpoints
    };
    m.insert("core.stream.checkpoint.writes", ckpt.writes as f64);
    m.insert(
        "core.stream.checkpoint.bytes_per_write",
        ckpt.bytes as f64 / ckpt.writes.max(1) as f64,
    );
    m.insert(
        "core.stream.checkpoint.bytes_per_resident_op",
        ckpt.bytes as f64 / ckpt.resident_ops.max(1) as f64,
    );
    let coordinator_push = ledger.first(&path_or_probe, "core.stream.coordinator.push");
    m.insert(
        "core.stream.coordinator.push_ns_per_op",
        coordinator_push.self_ns_per_op(),
    );
    m.insert(
        "core.stream.coordinator.finish_ms",
        ledger
            .first(&path_or_probe, "core.stream.coordinator.finish")
            .mean_ms(),
    );
    let (wire_bytes, wire_messages) = if path.wire_messages > 0 {
        (path.wire_bytes, path.wire_messages)
    } else {
        (probe.wire_bytes, probe.wire_messages)
    };
    m.insert(
        "core.stream.protocol.bytes_per_op",
        wire_bytes as f64 / coordinator_push.ops.max(1) as f64,
    );
    m.insert("core.stream.protocol.messages", wire_messages as f64);
    m.insert("trace.unattributed_frac", ledger.unattributed_frac());
    m
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn trace(flags: &Flags) -> Res<()> {
    let scratch = PathBuf::from(flags.need("scratch")?);
    let spans_out = PathBuf::from(flags.need("spans")?);
    let format = match flags.need("format")? {
        "binary" => Format::Binary,
        "ndjson" => Format::Ndjson,
        other => return Err(format!("unknown --format {other:?}").into()),
    };
    let shards: usize = flags.num("shards", None)?;
    let workers: usize = flags.num("workers", None)?;
    let command = match flags.need("command")? {
        "stream" => Command::Stream {
            shards,
            checkpoint: match flags.num::<u64>("checkpoint-every", None)? {
                0 => None,
                every => Some(CheckpointPlan {
                    path: scratch.join("trace.ckpt"),
                    every,
                }),
            },
        },
        "serve" => Command::Serve { workers },
        other => return Err(format!("unknown --command {other:?}").into()),
    };
    let path = PathBuf::from(flags.need("input")?);
    let input = Input {
        bytes: std::fs::read(&path)?,
        path,
        format,
    };
    let expected = read_counts(flags.need("counts")?)?;
    let probe = probe_input(flags.num("keys", None)?, flags.num("seed", None)?, &scratch)?;
    let budget = Duration::from_secs_f64(flags.num("seconds", None)?);

    let started = Instant::now();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last_spans = Vec::new();
    for iteration in 0u32.. {
        // Alternate which of the two path runs goes first.
        let mut plain_s = 0.0;
        let mut timed_plain = || -> Res<u64> {
            let t0 = Instant::now();
            let outcome = layers::run_plain(&command, &input)?;
            plain_s = t0.elapsed().as_secs_f64();
            Ok(failed_ops(&expected, &outcome.output))
        };
        if iteration % 2 == 0 {
            failed += timed_plain()?;
        }
        let trace = Trace::new();
        let t0 = Instant::now();
        let path_outcome = layers::run_traced(&trace, &command, &input)?;
        let traced_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let replay = layers::replay(&trace, &input, &expected)?;
        let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
        let probe_outcome = layers::probe(&trace, &probe, shards, workers)?;
        if iteration % 2 == 1 {
            failed += timed_plain()?;
        }
        let total: u64 = expected.values().sum();
        attempted += 2 * total + replay.ops + 2 * probe.records.len() as u64;
        failed +=
            failed_ops(&expected, &path_outcome.output) + replay.failed + probe_outcome.failed;

        let spans = trace.into_spans();
        let ledger = Ledger::from_spans(&spans);
        let mut metrics = layer_metrics(&ledger, &path_outcome, &replay, &probe_outcome, replay_ms);
        metrics.insert("trace.overhead_frac", traced_s / plain_s - 1.0);
        for (name, value) in metrics {
            samples.entry(name).or_default().push(value);
        }
        last_spans = spans;
        // Start another iteration only if one more, as long as the mean
        // so far, still ends within the budget.
        let elapsed = started.elapsed();
        if elapsed + elapsed / (iteration + 1) > budget {
            break;
        }
    }
    spans::write_spans(&spans_out, &last_spans)?;
    let iterations = samples.values().next().map_or(0, Vec::len);
    let mut metrics = Vec::new();
    for (name, values) in samples.iter_mut() {
        let value = median(values);
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number").into());
        }
        metrics.push(format!("\"{name}\":{value}"));
    }
    println!(
        "{{\"attempted\":{attempted},\"failed\":{failed},\"iterations\":{iterations},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "gen" => Flags::parse(rest).and_then(|f| gen(&f)),
        Some((cmd, rest)) if cmd == "trace" => Flags::parse(rest).and_then(|f| trace(&f)),
        _ => Err("usage: kavbench gen|trace --flag value ... (see the source header)".into()),
    };
    if let Err(e) = result {
        eprintln!("kavbench: {e}");
        std::process::exit(2);
    }
}
