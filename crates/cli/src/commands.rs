//! Subcommand implementations for the `kav` binary.

use crate::args::{ArgError, Args};
use kav_core::{
    check_witness, diagnose, fleet_verdict, read_checkpoint, smallest_k, worker_loop,
    CausalVerifier, Checkpoint, CheckpointWriter, ConstrainedSearch, DepthStats, DepthWindow,
    ExhaustiveSearch, FleetConfig, FleetCoordinator, FleetSummary, Fzf, GenK, GkOneAv, Lbt,
    ModelId, PipelineConfig, PipelineOutput, PipelineSnapshot, RegularVerifier, SafeVerifier,
    ShardProgress, SourcePosition, Staleness, StreamPipeline, UnknownModel, Verdict, Verifier,
    WorkerLink, DEFAULT_CAUSAL_BUDGET, DEFAULT_CHECKPOINT_EVERY, DEFAULT_GAP_BUDGET,
    DEFAULT_REPLAY_CAP,
};
use kav_history::fxhash::Fingerprint;
use kav_history::ndjson::{NdjsonError, StreamRecord};
use kav_history::{
    csv, frame, json, ndjson, render_timeline, repair, History, HistoryStats, RawHistory,
};
use serde::Serialize;
use kav_sim::{scenario_matrix, LatencyModel, Manifest, Scenario, SimConfig, Simulation};
use kav_weighted::{reduce_bin_packing, BinPacking};
use kav_workloads as workloads;
use std::error::Error;
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

type CmdResult = Result<(), Box<dyn Error>>;

/// Exit code for a verified k-atomicity violation (`kav stream`).
pub const EXIT_VIOLATION: u8 = 1;
/// Exit code for unusable input: malformed records were skipped (or, with
/// `--strict`, aborted on) or a key's stream broke the schema rules. The
/// history's k-atomicity was *not* refuted.
pub const EXIT_BAD_INPUT: u8 = 2;

/// An error that carries a specific process exit code, so `main` can
/// distinguish "the history is bad" from "the input is bad".
#[derive(Debug)]
pub struct ExitWith {
    /// The process exit code to use.
    pub code: u8,
    message: String,
}

impl ExitWith {
    fn new(code: u8, message: impl Into<String>) -> Box<Self> {
        Box::new(ExitWith { code, message: message.into() })
    }
}

impl std::fmt::Display for ExitWith {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for ExitWith {}

pub fn usage() -> &'static str {
    "kav — k-atomicity verification toolbox\n\
     \n\
     USAGE:\n\
     \x20 kav verify --k <1|2|N> [--algo gk|lbt|fzf|genk|constrained|search] [--witness]\n\
     \x20        [--model k-atomic|regular|safe|causal] [--gap-budget <nodes|unbounded>]\n\
     \x20        <history.json>\n\
     \x20        (genk: any k, bound-sandwich + budgeted constrained escalation;\n\
     \x20         --budget is a deprecated alias of --gap-budget; non-default --model\n\
     \x20         picks its own verifier — no --algo/--k; see docs/OPERATIONS.md,\n\
     \x20         \"Choosing a consistency model\")\n\
     \x20 kav smallest-k [--gap-budget <nodes|unbounded>] <history.json>\n\
     \x20 kav stats <history.json>\n\
     \x20 kav diagnose [--budget <nodes>] <history.json>\n\
     \x20 kav render [--width <cols>] <history.json>\n\
     \x20 kav repair <dirty.json> --out <clean.json>\n\
     \x20 kav gen --workload <staircase|serial|ladder|random|figure3|stream|deep-stale\n\
     \x20                     |zone-conflict|safe-only|causal-violation|causal-cycle\n\
     \x20                     |causal-stream|causal-clean>\n\
     \x20        [--n <ops>] [--k <bound>] [--seed <s>] [--spread <w>] [--out <file>]\n\
     \x20        [--keys <K>] [--format ndjson|binary]\n\
     \x20                                 (stream/deep-stale/causal-*: --n ops per key,\n\
     \x20                                  NDJSON or binary frames; deep-stale: staleness\n\
     \x20                                  exactly --k; zone-conflict/safe-only/causal-*:\n\
     \x20                                  forced-apart consistency-model gadgets)\n\
     \x20 kav stream [--k <1|2|N>] [--algo gk|lbt|fzf|genk] [--window <ops>] [--shards <N>]\n\
     \x20        [--model k-atomic|regular|safe|causal]\n\
     \x20        [--horizon <writes>] [--batch <ops>] [--strict]\n\
     \x20        [--gap-budget <nodes|unbounded>] [--format ndjson|binary]\n\
     \x20        [--checkpoint <file>] [--checkpoint-every <ops>]\n\
     \x20        [--resume <file>] [--progress-every <records>]\n\
     \x20        <ops.ndjson | ->      (- reads stdin; files and stdin alike are read in\n\
     \x20                               chunks through the decoder for the chosen --format)\n\
     \x20        exit codes: 0 = verified, 1 = violation, 2 = unusable input\n\
     \x20        (see docs/OPERATIONS.md for the checkpoint/resume lifecycle)\n\
     \x20 kav serve --workers <N> [stream's flags, except --progress-every]\n\
     \x20        [--replay-cap <frames>] [--split-hottest <records>]\n\
     \x20        [--kill-worker <idx:records>]   (fault-injection test hook)\n\
     \x20        <ops.ndjson | ->\n\
     \x20        multi-process fleet: partitions the key space over N spawned\n\
     \x20        `kav work` processes, merges their checkpoints and reports;\n\
     \x20        exit codes and checkpoint files interchange with `kav stream`\n\
     \x20        (see docs/OPERATIONS.md, \"Running a fleet\")\n\
     \x20 kav work [--algo gk|lbt|fzf|genk] [--k <N>] [--model <model>]\n\
     \x20        [--gap-budget <nodes|unbounded>]\n\
     \x20        fleet worker: speaks the coordinator protocol on stdin/stdout\n\
     \x20        (spawned by `kav serve`; not for interactive use)\n\
     \x20 kav sim [--replicas N] [--read-quorum R] [--write-quorum W] [--fanout F]\n\
     \x20        [--clients C] [--ops N] [--keys K] [--lag lo:hi] [--net lo:hi]\n\
     \x20        [--drop p] [--seed s] [--budget nodes] [--out-prefix path]\n\
     \x20 kav simulate --faults <scenario|all> [--seed s] [--out <file|prefix>]\n\
     \x20        [--manifest <file>] | --list\n\
     \x20        (adversarial fault schedules: crash-recovery, partition/heal,\n\
     \x20         quorum reconfig, clocks beyond the skew bound; emits a tagged\n\
     \x20         NDJSON stream for `kav stream` plus a ground-truth manifest)\n\
     \x20 kav reduce --sizes 3,2,2 --bins 2 --capacity 5 [--out <file>] [--decide true]\n"
}

/// Reads a raw history, dispatching on the file extension (.csv or JSON).
fn load_raw(path: &str) -> Result<RawHistory, Box<dyn Error>> {
    if path.ends_with(".csv") {
        Ok(csv::read_history(path)?)
    } else {
        Ok(json::read_history(path)?)
    }
}

fn load(args: &Args, position: usize) -> Result<History, Box<dyn Error>> {
    let path = args
        .positional(position)
        .ok_or_else(|| ArgError("missing history file argument".into()))?;
    Ok(load_raw(path)?.into_history()?)
}

/// The `(algo, k)` grid the CLI supports, spelled out for error messages.
const ALGO_RANGES: &str =
    "supported: --algo gk (k = 1), --algo fzf or lbt (k = 2), --algo genk (any k >= 1)";

/// `--algo` aliases: a resumed checkpoint records [`Verifier::name`],
/// which for the GK baseline (`"gk-zones"`) differs from the flag
/// spelling (`"gk"`). Both spellings mean the same verifier.
fn canonical_algo(algo: &str) -> &str {
    match algo {
        "gk-zones" => "gk",
        other => other,
    }
}

/// An unusable `(algo, k)` combination: a clear message naming the
/// supported range per algorithm, with the bad-input exit code — never a
/// panic, never a silent clamp to a default.
fn bad_algo_k(algo: &str, k: u64, extra: &str) -> Box<dyn Error> {
    let message = match canonical_algo(algo) {
        _ if k == 0 => format!("--k 0 is out of range: k must be at least 1; {ALGO_RANGES}{extra}"),
        "gk" => format!(
            "--k {k} is out of range for algorithm \"gk\", which decides k = 1 only; \
             {ALGO_RANGES}{extra}"
        ),
        "fzf" | "lbt" => format!(
            "--k {k} is out of range for algorithm {algo:?}, which decides k = 2 only; \
             {ALGO_RANGES}{extra}"
        ),
        // Only `kav stream` reaches these arms: `kav verify` dispatches
        // search and constrained itself for every k >= 1.
        "search" => format!(
            "algorithm \"search\" is offline-only (`kav verify`); for streaming use \
             --algo genk, which escalates only bound-gap windows to an exact search; \
             {ALGO_RANGES}{extra}"
        ),
        "constrained" => format!(
            "algorithm \"constrained\" is offline-only (`kav verify`); for streaming use \
             --algo genk, which escalates bound-gap windows to the same constrained \
             search; {ALGO_RANGES}{extra}"
        ),
        other => format!("unknown algorithm {other:?}; {ALGO_RANGES}{extra}"),
    };
    ExitWith::new(EXIT_BAD_INPUT, message)
}

/// Resolves the gap-escalation budget from `--gap-budget` (canonical on
/// every subcommand) or `--budget` (deprecated alias, kept for old
/// scripts). `"unbounded"` lifts the budget entirely (`None`); `0` is
/// rejected with exit 2 — it would mark every escalated window UNKNOWN
/// without searching, which is never what an operator wants.
fn gap_budget_flag(args: &Args, default: u64) -> Result<Option<u64>, Box<dyn Error>> {
    let (flag, value) = match (args.get("gap-budget"), args.get("budget")) {
        (Some(_), Some(_)) => {
            return Err(ExitWith::new(
                EXIT_BAD_INPUT,
                "--gap-budget and --budget are the same flag (--budget is the \
                 deprecated alias); pass only one",
            ));
        }
        (Some(v), None) => ("gap-budget", v),
        (None, Some(v)) => ("budget", v),
        (None, None) => return Ok(Some(default)),
    };
    if value == "unbounded" {
        return Ok(None);
    }
    let nodes: u64 = value.parse().map_err(|_| {
        ArgError(format!(
            "--{flag}: cannot parse {value:?} (expected a node count or \"unbounded\")"
        ))
    })?;
    if nodes == 0 {
        return Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!(
                "--{flag} 0 would mark every bound-gap window UNKNOWN without \
                 searching; pass a positive node budget (default {DEFAULT_GAP_BUDGET}) \
                 or \"unbounded\""
            ),
        ));
    }
    Ok(Some(nodes))
}

/// Resolves `--format`, shared by `kav gen` and `kav stream`: `ndjson`
/// (the default, one JSON record per line) or `binary` (the fixed-width
/// frame format of `kav_history::frame`). Returns whether binary was
/// requested; unknown values get the bad-input exit code.
fn format_flag(args: &Args) -> Result<bool, Box<dyn Error>> {
    match args.get("format") {
        None | Some("ndjson") => Ok(false),
        Some("binary") => Ok(true),
        Some(other) => Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!("--format {other:?}: expected \"ndjson\" or \"binary\""),
        )),
    }
}

/// Resolves `--model`: which consistency model the command decides
/// (default: k-atomic, the paper's native model). Unknown names get the
/// bad-input exit code, never a silent fallback.
fn model_flag(args: &Args) -> Result<ModelId, Box<dyn Error>> {
    match args.get("model") {
        None => Ok(ModelId::KAtomic),
        Some(v) => parse_model(v),
    }
}

fn parse_model(v: &str) -> Result<ModelId, Box<dyn Error>> {
    v.parse().map_err(|e: UnknownModel| -> Box<dyn Error> {
        ExitWith::new(EXIT_BAD_INPUT, format!("--model: {e}"))
    })
}

/// Non-k-atomic models pick their own verifier and have no staleness
/// parameter: a `--algo` or `--k` alongside them is a contradiction, not
/// a preference, and gets the bad-input exit code.
fn reject_model_flags(args: &Args, model: ModelId) -> CmdResult {
    if model.is_k_atomic() {
        return Ok(());
    }
    if let Some(algo) = args.get("algo") {
        return Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!(
                "--algo {algo} applies to the k-atomic model only; \
                 --model {model} selects its own verifier"
            ),
        ));
    }
    if let Some(k) = args.get("k") {
        return Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!(
                "--k {k} applies to the k-atomic model only; \
                 the {model} model has no staleness parameter"
            ),
        ));
    }
    Ok(())
}

/// Streams records to stdout through one buffered, allocation-free
/// writer — NDJSON by default, binary frames on request.
fn emit_records_to_stdout(records: &[ndjson::StreamRecord], binary: bool) -> CmdResult {
    let stdout = std::io::stdout().lock();
    if binary {
        // Pick the frame layout by content, like `frame::write_frames`:
        // v1 stays byte-identical for untagged streams, v2 carries the
        // client tags session-aware workloads depend on.
        let tagged = records.iter().any(|r| r.client != kav_history::UNTAGGED_CLIENT);
        let mut writer = if tagged {
            frame::FrameWriter::new_v2(stdout)
        } else {
            frame::FrameWriter::new(stdout)
        };
        for record in records {
            writer.write_record(record)?;
        }
        let _ = writer.finish()?;
    } else {
        let mut writer = ndjson::StreamWriter::new(stdout);
        for record in records {
            writer.write_record(record)?;
        }
        let _ = writer.finish()?;
    }
    Ok(())
}

/// `kav verify` — decide the chosen consistency model (k-atomicity with
/// a chosen algorithm by default; `--model` swaps in the regular, safe
/// or causal verifier).
pub fn verify(args: &Args) -> CmdResult {
    let model = model_flag(args)?;
    if !model.is_k_atomic() {
        let verifier = Semantics::from_flags(args)?.verifier()?;
        let history = load(args, 1)?;
        match verifier.verify(&history) {
            Verdict::Consistent => println!("YES: history satisfies the {model} model"),
            Verdict::NotKAtomic => println!("NO: history violates the {model} model"),
            Verdict::Inconclusive => {
                println!("UNKNOWN: verification budget exhausted ({model})")
            }
            Verdict::KAtomic { .. } => {
                unreachable!("model verifiers return witness-less verdicts")
            }
        }
        return Ok(());
    }
    let k: u64 = args.get_parsed("k", 2)?;
    let history = load(args, 1)?;
    let algo = args.get("algo").unwrap_or(match k {
        1 => "gk",
        2 => "fzf",
        _ => "genk",
    });
    let gap_budget = gap_budget_flag(args, 10_000_000)?;
    let verdict = match (canonical_algo(algo), k) {
        ("gk", 1) => GkOneAv.verify(&history),
        ("lbt", 2) => Lbt::new().verify(&history),
        ("fzf", 2) => Fzf.verify(&history),
        ("genk", k) if k >= 1 => GenK::with_gap_budget(k, gap_budget).verify(&history),
        ("constrained", k) if k >= 1 => match gap_budget {
            Some(budget) => ConstrainedSearch::with_node_budget(k, budget).verify(&history),
            None => ConstrainedSearch::new(k).verify(&history),
        },
        ("search", k) if k >= 1 => match gap_budget {
            Some(budget) => ExhaustiveSearch::with_node_budget(k, budget).verify(&history),
            None => ExhaustiveSearch::new(k).verify(&history),
        },
        (a, k) => {
            return Err(bad_algo_k(
                a,
                k,
                ", or --algo constrained / search (any k >= 1, exact)",
            ));
        }
    };
    match &verdict {
        Verdict::KAtomic { witness } => {
            check_witness(&history, witness, k)?;
            println!("YES: history is {k}-atomic ({algo}, witness checked)");
            if args.flag("witness") {
                let ids: Vec<String> =
                    witness.iter().map(|id| history.op(*id).to_string()).collect();
                println!("witness order:\n  {}", ids.join("\n  "));
            }
        }
        Verdict::Consistent => println!("YES: history is {algo}-consistent"),
        Verdict::NotKAtomic => println!("NO: history is not {k}-atomic ({algo})"),
        Verdict::Inconclusive => println!("UNKNOWN: search budget exhausted ({algo})"),
    }
    Ok(())
}

/// `kav smallest-k` — the §II-B exact staleness bound.
pub fn smallest_k_cmd(args: &Args) -> CmdResult {
    let history = load(args, 1)?;
    let budget = gap_budget_flag(args, 10_000_000)?;
    match smallest_k(&history, budget) {
        Staleness::Exact(k) => println!("smallest k = {k}"),
        Staleness::AtLeast(k) => println!("smallest k >= {k} (budget exhausted)"),
    }
    Ok(())
}

/// `kav stats` — the census of a history.
pub fn stats(args: &Args) -> CmdResult {
    let history = load(args, 1)?;
    println!("{}", HistoryStats::of(&history));
    Ok(())
}

fn emit(raw: &RawHistory, args: &Args) -> CmdResult {
    match args.get("out") {
        Some(path) if path.ends_with(".csv") => {
            csv::write_history(path, raw)?;
            println!("wrote {} operations to {path}", raw.len());
        }
        Some(path) => {
            json::write_history(path, raw)?;
            println!("wrote {} operations to {path}", raw.len());
        }
        None => println!("{}", json::to_json_string(raw)),
    }
    Ok(())
}

/// `kav render` — ASCII timeline of a history.
pub fn render(args: &Args) -> CmdResult {
    let history = load(args, 1)?;
    let width: usize = args.get_parsed("width", 100)?;
    print!("{}", render_timeline(&history, width));
    Ok(())
}

/// `kav diagnose` — why is this history inconsistent?
pub fn diagnose_cmd(args: &Args) -> CmdResult {
    let history = load(args, 1)?;
    let budget: u64 = args.get_parsed("budget", 2_000_000u64)?;
    println!("{}", diagnose(&history, Some(budget)));
    Ok(())
}

/// `kav repair` — salvage a dirty capture into a verifiable history.
pub fn repair_cmd(args: &Args) -> CmdResult {
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("repair requires a history file".into()))?;
    let raw = load_raw(path)?;
    let (history, log) = repair(raw)?;
    println!("{log}");
    println!("{} operations survive", history.len());
    if args.get("out").is_some() {
        emit(&history.to_raw(), args)?;
    }
    Ok(())
}

/// `kav gen` — synthetic workloads.
pub fn gen(args: &Args) -> CmdResult {
    let workload = args
        .get("workload")
        .ok_or_else(|| ArgError("gen requires --workload".into()))?;
    let n: usize = args.get_parsed("n", 100)?;
    let k: u64 = args.get_parsed("k", 2)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let spread: u64 = args.get_parsed("spread", 3)?;
    let stream_workloads = ["stream", "deep-stale", "causal-stream", "causal-clean"];
    if stream_workloads.contains(&workload) {
        let keys = args.get_parsed::<u64>("keys", 4)?.max(1);
        let records = match workload {
            "stream" => workloads::streaming_workload(workloads::StreamingWorkloadConfig {
                keys,
                ops_per_key: n.max(1),
                k,
                spread,
                seed,
                ..Default::default()
            }),
            "deep-stale" => {
                if k == 0 {
                    return Err(ArgError("deep-stale requires --k >= 1".into()).into());
                }
                workloads::deep_stale_stream(workloads::DeepStaleConfig {
                    keys,
                    ops_per_key: n.max(1),
                    k,
                    spread,
                    seed,
                    ..Default::default()
                })
            }
            // Session-tagged gadget streams: --n counts operations per
            // key, rounded up to whole 4-operation gadgets.
            "causal-stream" => workloads::causal_violation_stream(
                workloads::CausalStreamConfig {
                    keys,
                    gadgets_per_key: n.max(1).div_ceil(4),
                    seed,
                },
            ),
            "causal-clean" => workloads::causal_clean_stream(workloads::CausalStreamConfig {
                keys,
                gadgets_per_key: n.max(1).div_ceil(4),
                seed,
            }),
            _ => unreachable!("gated by stream_workloads"),
        };
        match (args.get("out"), format_flag(args)?) {
            (Some(path), true) => {
                frame::write_frames(path, &records)?;
                println!("wrote {} stream records to {path} (binary frames)", records.len());
            }
            (Some(path), false) => {
                ndjson::write_stream(path, &records)?;
                println!("wrote {} stream records to {path}", records.len());
            }
            (None, binary) => emit_records_to_stdout(&records, binary)?,
        }
        return Ok(());
    }
    if format_flag(args)? {
        return Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!(
                "--format binary applies to the stream workloads only \
                 (--workload {workload} emits a history file, not a record stream)"
            ),
        ));
    }
    let history = match workload {
        "staircase" => workloads::staircase(n.max(1) / 2),
        "serial" => workloads::serial(n),
        "ladder" => workloads::ladder(k),
        "figure3" => workloads::figure3(),
        "random" => workloads::random_k_atomic(workloads::RandomHistoryConfig {
            ops: n,
            k,
            spread,
            seed,
            ..Default::default()
        }),
        // Forced-apart model gadgets: fixed geometries that separate the
        // consistency models (see docs/OPERATIONS.md).
        "zone-conflict" => workloads::zone_conflict(),
        "safe-only" => workloads::safe_not_regular(),
        "causal-violation" => workloads::causal_violation(),
        "causal-cycle" => workloads::causal_cycle(),
        other => return Err(ArgError(format!("unknown workload {other:?}")).into()),
    };
    emit(&history.to_raw(), args)
}

/// `kav sim` — run the quorum-store simulator and verify each key.
pub fn sim(args: &Args) -> CmdResult {
    let (net_lo, net_hi) = args.get_range("net", (50, 500))?;
    let (lag_lo, lag_hi) = args.get_range("lag", (0, 0))?;
    let config = SimConfig {
        replicas: args.get_parsed("replicas", 3)?,
        read_quorum: args.get_parsed("read-quorum", 2)?,
        write_quorum: args.get_parsed("write-quorum", 2)?,
        write_fanout: args.get("fanout").map(|v| v.parse()).transpose().map_err(|_| {
            ArgError("--fanout: expected an integer".into())
        })?,
        clients: args.get_parsed("clients", 4)?,
        ops_per_client: args.get_parsed("ops", 50)?,
        keys: args.get_parsed("keys", 1)?,
        read_fraction: args.get_parsed("read-fraction", 0.5)?,
        network: LatencyModel::Uniform { lo: net_lo, hi: net_hi },
        apply_lag: if (lag_lo, lag_hi) == (0, 0) {
            LatencyModel::Fixed(0)
        } else {
            LatencyModel::Uniform { lo: lag_lo, hi: lag_hi }
        },
        drop_probability: args.get_parsed("drop", 0.0)?,
        seed: args.get_parsed("seed", 0)?,
        ..SimConfig::default()
    };
    let budget: u64 = args.get_parsed("budget", 2_000_000u64)?;
    let output = Simulation::new(config)?.run();
    println!(
        "simulated {} reads / {} writes (mean latency {:.0} / {:.0} us)",
        output.stats.reads,
        output.stats.writes,
        output.stats.mean_read_latency(),
        output.stats.mean_write_latency(),
    );
    let prefix = args.get("out-prefix").map(str::to_owned);
    println!("key | ops | c | smallest k");
    for (key, raw) in &output.histories {
        if let Some(prefix) = &prefix {
            json::write_history(format!("{prefix}-key{key}.json"), raw)?;
        }
        let history = raw.clone().into_history()?;
        let k = smallest_k(&history, Some(budget));
        println!(
            "{key:>3} | {:>4} | {} | {k}",
            history.len(),
            history.max_concurrent_writes()
        );
    }
    Ok(())
}

/// Runs one scenario and writes its stream and ground-truth manifest —
/// to files when `out` is given, else stream to stdout and manifest to
/// stderr.
fn emit_scenario(
    scenario: &Scenario,
    out: Option<&str>,
    manifest_path: Option<&str>,
) -> Result<Manifest, Box<dyn Error>> {
    let run = scenario.run()?;
    match out {
        Some(path) => {
            ndjson::write_stream(path, &run.records)?;
            let manifest_path =
                manifest_path.map(str::to_owned).unwrap_or_else(|| format!("{path}.manifest.json"));
            std::fs::write(
                &manifest_path,
                serde_json::to_string(&run.manifest).expect("manifests serialize") + "\n",
            )?;
            println!(
                "{}: {} records ({} reads / {} writes, {} timeouts, {} lost write copies, \
                 {} reconfigs) -> {path}; manifest ({}, k_bound {}) -> {manifest_path}",
                scenario.name,
                run.records.len(),
                run.manifest.reads,
                run.manifest.writes,
                run.manifest.timeouts,
                run.manifest.lost_writes,
                run.manifest.reconfigs,
                run.manifest.expected.name(),
                run.manifest.k_bound,
            );
        }
        None => {
            // Keep stdout pure NDJSON (pipeable straight into `kav
            // stream -`); the ground truth goes to stderr as one JSON line.
            eprintln!("{}", serde_json::to_string(&run.manifest).expect("manifests serialize"));
            emit_records_to_stdout(&run.records, false)?;
        }
    }
    Ok(run.manifest)
}

/// `kav simulate` — record adversarial fault-schedule scenarios as tagged
/// NDJSON streams plus ground-truth manifests.
///
/// Scenarios come from the `kav_sim` adversarial matrix: crash-recovery
/// with write loss, partition/heal cycles, mid-run quorum reconfiguration
/// and clocks beyond the declared skew bound (plus a clean control). The
/// manifest records the seed, the full schedule and the expected-verdict
/// class, so downstream audits can be judged against ground truth.
pub fn simulate(args: &Args) -> CmdResult {
    if args.flag("list") {
        println!("scenario | expected | k_bound | faults");
        for s in scenario_matrix(0) {
            println!(
                "{:<17} | {:<14} | {:>7} | {}",
                s.name,
                s.expected.name(),
                s.k_bound,
                s.faults.faults.len(),
            );
        }
        return Ok(());
    }
    let name = args.get("faults").ok_or_else(|| {
        ArgError("simulate requires --faults <scenario|all> (use --list to see them)".into())
    })?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    if name == "all" {
        let prefix = args.get("out").ok_or_else(|| {
            ArgError("--faults all requires --out <prefix> (one stream per scenario)".into())
        })?;
        for scenario in scenario_matrix(seed) {
            let stream = format!("{prefix}-{}.ndjson", scenario.name);
            emit_scenario(&scenario, Some(&stream), None)?;
        }
        return Ok(());
    }
    let Some(scenario) = kav_sim::scenario(name, seed) else {
        let known: Vec<String> = scenario_matrix(0).into_iter().map(|s| s.name).collect();
        return Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!("unknown fault scenario {name:?}; known: {}, or \"all\"", known.join(", ")),
        ));
    };
    emit_scenario(&scenario, args.get("out"), args.get("manifest"))?;
    Ok(())
}

/// `kav stream` — online sliding-window verification of a record stream
/// (NDJSON or binary frames) in this process.
///
/// Exit codes: `0` when every key verifies (or no violation was found but
/// certification was lost to breaches/orphans — `UNKNOWN`),
/// [`EXIT_VIOLATION`] when some key is provably not k-atomic, and
/// [`EXIT_BAD_INPUT`] for everything that prevented or degraded
/// verification (malformed lines, a key breaking the stream schema,
/// unreadable files, bad flags) — so `1` *always* means "store is
/// inconsistent" and never "tap is broken".
pub fn stream(args: &Args) -> CmdResult {
    audit(args, false)
}

/// `kav serve` — multi-process fleet verification: the coordinator
/// partitions the key space over `--workers` spawned `kav work`
/// processes, fans ingest out by key hash, merges their checkpoints at
/// cadence and their final reports at the end. Exit codes, checkpoint
/// files and the report table are interchangeable with `kav stream`;
/// worker death is absorbed by checkpoint hand-off (see
/// docs/OPERATIONS.md, "Running a fleet").
pub fn serve(args: &Args) -> CmdResult {
    audit(args, true)
}

/// `kav work` — one fleet worker: speaks the coordinator↔worker protocol
/// on stdin/stdout until FINISH (exit 0) or a protocol fault (exit
/// [`EXIT_BAD_INPUT`] with the diagnostic on stderr — a fault is unusable
/// input, never a verdict). Spawned by `kav serve`; runnable by hand only
/// for debugging the wire format.
pub fn work(args: &Args) -> CmdResult {
    let verifier = Semantics::from_flags(args)?.verifier()?;
    worker_loop(verifier, std::io::stdin().lock(), std::io::stdout().lock()).map_err(
        |e| -> Box<dyn Error> { ExitWith::new(EXIT_BAD_INPUT, format!("worker: {e}")) },
    )
}

/// Rejects a flag that contradicts what a resumed checkpoint recorded:
/// silently switching parameters mid-chain would change what the resumed
/// counters mean.
fn reject_resume_conflict(args: &Args, name: &str, recorded: &str) -> CmdResult {
    match args.get(name) {
        // `canonical_algo` lets `--algo gk` match a checkpoint that
        // recorded the verifier's own name, "gk-zones".
        Some(given) if canonical_algo(given) != canonical_algo(recorded) => Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!(
                "--{name} {given} conflicts with the checkpoint's {name} = {recorded}; \
                 drop the flag to continue the audit, or start a fresh one"
            ),
        )),
        _ => Ok(()),
    }
}

/// Rejects a `--model` flag that contradicts the consistency model a
/// resumed checkpoint recorded: the counters in the checkpoint are
/// verdicts under *that* model's semantics, so continuing under another
/// would certify something never audited. Names both models so the
/// operator can see exactly which two disagreed.
fn reject_resume_model_conflict(args: &Args, recorded: ModelId) -> CmdResult {
    match args.get("model") {
        Some(flag) if parse_model(flag)? != recorded => Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!(
                "--model {} conflicts with the checkpoint's model = {recorded}; \
                 drop the flag to continue the audit, or start a fresh one",
                parse_model(flag)?,
            ),
        )),
        _ => Ok(()),
    }
}

/// Rejects the flags the chosen engine never reads, rather than ignoring
/// them: `kav serve` emits no progress records, and `kav stream` runs no
/// fleet.
fn reject_unread_flags(args: &Args, fleet: bool) -> CmdResult {
    let (command, unread, why): (&str, &[&str], &str) = if fleet {
        ("serve", &["progress-every"], "it emits no progress records; use `kav stream`")
    } else {
        (
            "stream",
            &["workers", "replay-cap", "split-hottest", "kill-worker"],
            "it is a fleet flag; use `kav serve`",
        )
    };
    match unread.iter().find(|flag| args.get(flag).is_some()) {
        Some(flag) => Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!("--{flag} is not read by `kav {command}`: {why}"),
        )),
        None => Ok(()),
    }
}

/// What an audit decides — the consistency model, the algorithm and `k`
/// — plus the escalation budget: everything that picks the verifier.
struct Semantics {
    model: ModelId,
    /// The `--algo` spelling, or the verifier name a checkpoint recorded;
    /// for non-k-atomic models, the model's own name.
    algo: String,
    k: u64,
    /// Search nodes per bound-gap window for genk, the closure budget for
    /// the causal model; `None` is unbounded.
    gap_budget: Option<u64>,
}

impl Semantics {
    /// The semantics a fresh audit's flags ask for (`kav stream`,
    /// `kav serve` and `kav work` alike).
    fn from_flags(args: &Args) -> Result<Self, Box<dyn Error>> {
        let model = model_flag(args)?;
        reject_model_flags(args, model)?;
        let (k, algo) = if model.is_k_atomic() {
            let k: u64 = args.get_parsed("k", 2)?;
            let algo = args.get("algo").unwrap_or(match k {
                1 => "gk",
                2 => "fzf",
                _ => "genk",
            });
            (k, algo.to_string())
        } else {
            // Model verifiers have no staleness parameter (they report
            // k = 1) and the algo slot carries the model's own name.
            (1, model.as_str().to_string())
        };
        Ok(Semantics { model, algo, k, gap_budget: Self::gap_budget(args, model)? })
    }

    /// The semantics a checkpoint recorded; contradicting flags are
    /// rejected. The budget stays free: it trades UNKNOWNs for latency
    /// but never changes what a counted verdict means.
    fn recorded(args: &Args, p: &PipelineSnapshot) -> Result<Self, Box<dyn Error>> {
        reject_resume_model_conflict(args, p.model)?;
        reject_resume_conflict(args, "k", &p.k.to_string())?;
        reject_resume_conflict(args, "algo", &p.algo)?;
        Ok(Semantics {
            model: p.model,
            algo: p.algo.clone(),
            k: p.k,
            gap_budget: Self::gap_budget(args, p.model)?,
        })
    }

    /// The causal closure budget and the k-atomic gap budget share the
    /// flag, but not the default: each model's own ceiling applies.
    fn gap_budget(args: &Args, model: ModelId) -> Result<Option<u64>, Box<dyn Error>> {
        let default =
            if model == ModelId::Causal { DEFAULT_CAUSAL_BUDGET } else { DEFAULT_GAP_BUDGET };
        gap_budget_flag(args, default)
    }

    /// The verifier these semantics name — the one (model, algo, k,
    /// budget) table behind `kav stream`, `kav serve` and `kav work`.
    fn verifier(&self) -> Result<AnyVerifier, Box<dyn Error>> {
        let verifier: Arc<dyn Verifier + Send + Sync> = match self.model {
            ModelId::KAtomic => match (canonical_algo(&self.algo), self.k) {
                ("gk", 1) => Arc::new(GkOneAv),
                ("fzf", 2) => Arc::new(Fzf),
                ("lbt", 2) => Arc::new(Lbt::new()),
                ("genk", k) if k >= 1 => Arc::new(GenK::with_gap_budget(k, self.gap_budget)),
                (a, k) => return Err(bad_algo_k(a, k, "")),
            },
            ModelId::Regular => Arc::new(RegularVerifier),
            ModelId::Safe => Arc::new(SafeVerifier),
            ModelId::Causal => {
                Arc::new(CausalVerifier::with_budget(self.gap_budget.unwrap_or(u64::MAX)))
            }
        };
        Ok(AnyVerifier(verifier))
    }

    /// The `kav work` flags under which a worker resolves the same
    /// verifier.
    fn worker_args(&self) -> Vec<String> {
        let mut args: Vec<String> = if self.model.is_k_atomic() {
            // `kav work` rejects --algo/--k alongside a non-default
            // --model, so each spawn passes exactly one vocabulary.
            let algo = canonical_algo(&self.algo).to_string();
            vec!["--algo".into(), algo, "--k".into(), self.k.to_string()]
        } else {
            vec!["--model".into(), self.model.as_str().to_string()]
        };
        args.push("--gap-budget".into());
        args.push(self.gap_budget.map_or_else(|| "unbounded".to_string(), |n| n.to_string()));
        args
    }
}

/// Whichever verifier [`Semantics::verifier`] picked, as one type: the
/// pipeline and the worker loop are instantiated once, not per verifier.
/// A segment costs one indirect call more.
#[derive(Clone)]
struct AnyVerifier(Arc<dyn Verifier + Send + Sync>);

impl Verifier for AnyVerifier {
    fn k(&self) -> u64 {
        self.0.k()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn model(&self) -> ModelId {
        self.0.model()
    }

    fn verify(&self, history: &History) -> Verdict {
        self.0.verify(history)
    }
}

/// How an audit runs, resolved from the flags before any input is read.
enum Plan {
    /// `kav stream`: one pipeline in this process.
    Local(PipelineConfig, AnyVerifier),
    /// `kav serve`: a coordinator over `workers` spawned `kav work`
    /// processes, each started with `worker_args`.
    Fleet {
        config: FleetConfig,
        workers: usize,
        worker_args: Vec<String>,
        /// `--kill-worker idx:records`: the fault-injection hook.
        kill: Option<(usize, u64)>,
        /// `--split-hottest records` (0 = never).
        split_at: u64,
    },
}

impl Plan {
    fn from_flags(
        args: &Args,
        fleet: bool,
        semantics: &Semantics,
        window: usize,
        horizon: Option<usize>,
    ) -> Result<Self, Box<dyn Error>> {
        let verifier = semantics.verifier()?;
        let checkpoint_every = args.get_parsed("checkpoint-every", DEFAULT_CHECKPOINT_EVERY)?;
        if !fleet {
            let config = PipelineConfig {
                window,
                shards: args.get_parsed("shards", 4)?,
                horizon,
                batch: args.get_parsed("batch", PipelineConfig::default().batch)?,
                checkpoint_every,
            };
            return Ok(Plan::Local(config, verifier));
        }
        let workers: usize = args.get_parsed("workers", 2)?;
        if workers == 0 {
            return Err(ExitWith::new(
                EXIT_BAD_INPUT,
                "--workers 0: a fleet needs at least one worker",
            ));
        }
        let kill = match args.get("kill-worker") {
            None => None,
            Some(v) => {
                let parsed = v.split_once(':').and_then(|(idx, at)| {
                    Some((idx.parse().ok()?, at.parse().ok()?))
                });
                let (idx, at) = parsed.ok_or_else(|| {
                    ArgError(format!("--kill-worker: expected idx:records, got {v:?}"))
                })?;
                if idx >= workers {
                    return Err(ExitWith::new(
                        EXIT_BAD_INPUT,
                        format!("--kill-worker {idx}: the fleet has workers 0..{workers}"),
                    ));
                }
                Some((idx, at))
            }
        };
        let config = FleetConfig {
            // On the wire the algo slot carries the verifier's own name:
            // workers refuse assignments naming anything else.
            algo: verifier.name().to_string(),
            model: verifier.model(),
            k: verifier.k(),
            window,
            horizon,
            // One pipeline thread per worker by default: the fleet's
            // parallelism is the processes themselves.
            worker_shards: args.get_parsed("shards", 1)?,
            batch: args.get_parsed("batch", FleetConfig::default().batch)?,
            checkpoint_every,
            replay_cap: args.get_parsed("replay-cap", DEFAULT_REPLAY_CAP)?,
        };
        Ok(Plan::Fleet {
            config,
            workers,
            worker_args: semantics.worker_args(),
            kill,
            split_at: args.get_parsed("split-hottest", 0)?,
        })
    }

    /// The parallelism the report header names.
    fn scale(&self) -> String {
        match self {
            Plan::Local(config, _) => format!("{} shards", config.shards.max(1)),
            Plan::Fleet { workers, .. } => format!("{workers} workers"),
        }
    }
}

/// The engine an audit drives, behind the verbs both share.
enum Engine {
    Local(StreamPipeline),
    Fleet {
        coordinator: FleetCoordinator,
        children: Vec<Child>,
        kill: Option<(usize, u64)>,
        split_at: u64,
    },
}

impl Engine {
    /// Starts the planned engine, fresh or from a checkpoint's snapshot
    /// (with whether its input prefix was proven).
    fn start(
        plan: Plan,
        resume: Option<(&PipelineSnapshot, bool)>,
    ) -> Result<Self, Box<dyn Error>> {
        Ok(match plan {
            Plan::Local(config, verifier) => Engine::Local(match resume {
                Some((snapshot, verified)) => {
                    StreamPipeline::resume(verifier, config, snapshot, verified)?
                }
                None => StreamPipeline::new(verifier, config),
            }),
            Plan::Fleet { config, workers, worker_args, kill, split_at } => {
                let (children, links) = spawn_workers(workers, &worker_args)?;
                let coordinator = match resume {
                    Some((snapshot, verified)) => {
                        FleetCoordinator::resume(config, links, snapshot, verified)?
                    }
                    None => FleetCoordinator::new(config, links)?,
                };
                Engine::Fleet { coordinator, children, kill, split_at }
            }
        })
    }

    fn push(&mut self, record: &StreamRecord) -> CmdResult {
        match self {
            Engine::Local(pipeline) => pipeline.push(record.key, record.op()),
            Engine::Fleet { coordinator, .. } => coordinator.push(record.key, record.op())?,
        }
        Ok(())
    }

    /// Runs the fleet's test hooks once `records` input records (valid or
    /// not) are consumed.
    fn after_record(&mut self, records: u64) -> CmdResult {
        if let Engine::Fleet { coordinator, children, kill, split_at } = self {
            if let Some((idx, at)) = *kill {
                if records == at {
                    // SIGKILL the worker mid-stream; the coordinator must
                    // absorb it by checkpoint hand-off.
                    children[idx].kill()?;
                    children[idx].wait()?;
                }
            }
            if *split_at > 0 && records == *split_at {
                coordinator.split_hottest()?;
            }
        }
        Ok(())
    }

    fn checkpoint_due(&self) -> bool {
        match self {
            Engine::Local(pipeline) => pipeline.checkpoint_due(),
            Engine::Fleet { coordinator, .. } => coordinator.checkpoint_due(),
        }
    }

    fn snapshot(&mut self) -> Result<PipelineSnapshot, Box<dyn Error>> {
        Ok(match self {
            Engine::Local(pipeline) => pipeline.snapshot(),
            Engine::Fleet { coordinator, .. } => coordinator.snapshot_fleet()?,
        })
    }

    /// The final output, plus the fleet's summary when there is a fleet.
    fn finish(self) -> Result<(PipelineOutput, Option<FleetSummary>), Box<dyn Error>> {
        match self {
            Engine::Local(pipeline) => Ok((pipeline.finish(), None)),
            Engine::Fleet { coordinator, mut children, .. } => {
                let (output, summary) = coordinator.finish()?;
                for child in &mut children {
                    let _ = child.wait();
                }
                Ok((output, Some(summary)))
            }
        }
    }
}

/// Spawns `n` `kav work` processes with `worker_args`. They speak the
/// protocol on their stdin/stdout; stderr passes through for
/// diagnostics.
fn spawn_workers(
    n: usize,
    worker_args: &[String],
) -> Result<(Vec<Child>, Vec<WorkerLink>), Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(n);
    let mut links = Vec::with_capacity(n);
    for _ in 0..n {
        let mut child = Command::new(&exe)
            .arg("work")
            .args(worker_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let child_stdin = child.stdin.take().expect("stdin is piped");
        let child_stdout = child.stdout.take().expect("stdout is piped");
        links.push(WorkerLink {
            writer: Box::new(std::io::BufWriter::new(child_stdin)),
            reader: Box::new(std::io::BufReader::new(child_stdout)),
        });
        children.push(child);
    }
    Ok((children, links))
}

/// The record sources the driver reads, NDJSON lines or binary frames,
/// behind one cursor. Position units are raw lines for NDJSON and frames
/// for binary; checkpoints store whichever the session used, so a resume
/// must keep the format (the fingerprint check enforces this).
trait Ingest: Iterator<Item = Result<StreamRecord, NdjsonError>> {
    /// Raw input units consumed so far.
    fn units_read(&self) -> u64;
    fn fingerprint(&self) -> Option<u64>;
    /// Skips up to `n` raw units without decoding them, returning how
    /// many were consumed (resume prefix verification).
    fn skip_units(&mut self, n: u64) -> std::io::Result<u64>;
}

impl<R: Read> Ingest for ndjson::LineStream<R> {
    fn units_read(&self) -> u64 {
        self.lines_read()
    }

    fn fingerprint(&self) -> Option<u64> {
        self.fingerprint()
    }

    fn skip_units(&mut self, n: u64) -> std::io::Result<u64> {
        self.skip_raw_lines(n)
    }
}

impl<R: Read> Ingest for frame::FrameStream<R> {
    fn units_read(&self) -> u64 {
        self.frames_read()
    }

    fn fingerprint(&self) -> Option<u64> {
        self.fingerprint()
    }

    fn skip_units(&mut self, n: u64) -> std::io::Result<u64> {
        self.skip_raw_frames(n)
    }
}

/// Opens the audit's input — a file, or `-` for stdin — through the
/// chunked reader for its format. Fingerprints whenever checkpoints are
/// written (so they can later be verified) or verified (a resume).
fn open_input(
    input: &str,
    binary: bool,
    fingerprinted: bool,
) -> Result<Box<dyn Ingest>, Box<dyn Error>> {
    let raw: Box<dyn Read> = if input == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(std::fs::File::open(input)?)
    };
    let fingerprint = fingerprinted.then(Fingerprint::new);
    Ok(if binary {
        let reader = match fingerprint {
            Some(fp) => frame::FrameStream::with_fingerprint(raw, fp),
            None => frame::FrameStream::new(raw),
        }
        .map_err(|e| ExitWith::new(EXIT_BAD_INPUT, format!("{input}: {e}")))?;
        Box::new(reader)
    } else {
        Box::new(match fingerprint {
            Some(fp) => ndjson::LineStream::with_fingerprint(raw, fp),
            None => ndjson::LineStream::new(raw),
        })
    })
}

/// Re-reads the input prefix a checkpoint summarised and proves it is
/// byte-identical before its verdicts are trusted. Returns whether the
/// prefix was verified: stdin cannot be re-read, so there the operator
/// feeds the remaining records, the audit continues, and YES degrades to
/// UNKNOWN (NO stays sound). Lines and fingerprint then restart with this
/// run's input, consistent with any checkpoint written from it.
fn verify_prefix(
    source: &mut dyn Ingest,
    checkpoint: &Checkpoint,
    from_stdin: bool,
) -> Result<bool, Box<dyn Error>> {
    if from_stdin {
        eprintln!(
            "warning: resuming from stdin skips prefix verification — \
             a YES verdict will degrade to UNKNOWN"
        );
        return Ok(false);
    }
    let lines = checkpoint.source.lines;
    let skipped = source.skip_units(lines)?;
    if skipped < lines {
        return Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!(
                "--resume: input ends after {skipped} records but the checkpoint covers \
                 {lines}; wrong input file?"
            ),
        ));
    }
    if source.fingerprint() != Some(checkpoint.source.fingerprint) {
        return Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!(
                "--resume: the first {lines} input records differ from the ones the \
                 checkpoint summarised (fingerprint mismatch — wrong file, or a different \
                 --format?); resuming would silently corrupt the audit"
            ),
        ));
    }
    Ok(true)
}

/// The audit driver behind both `kav stream` (`fleet = false`) and
/// `kav serve`; only the [`Engine`] differs. Any failure that is not
/// already an [`ExitWith`] (I/O, arg parsing, transport and protocol
/// faults) verified nothing: it gets the bad-input code rather than the
/// generic 1, which auditing scripts read as a proven violation.
fn audit(args: &Args, fleet: bool) -> CmdResult {
    drive(args, fleet).map_err(|e| -> Box<dyn Error> {
        if e.is::<ExitWith>() {
            e
        } else {
            ExitWith::new(EXIT_BAD_INPUT, e.to_string())
        }
    })
}

/// Feeds the input into a (fresh or resumed) engine, checkpointing and
/// emitting progress at the configured cadences, then [`report`]s.
/// Malformed records are skipped and counted, keeping only the first few
/// messages (the run completes, then exits non-zero) — unless `--strict`,
/// which aborts on the first one. Genuine I/O failures abort.
fn drive(args: &Args, fleet: bool) -> CmdResult {
    const MALFORMED_SAMPLES: usize = 10;
    reject_unread_flags(args, fleet)?;
    let resume = match args.get("resume") {
        Some(path) => Some(read_checkpoint(path).map_err(|e| {
            ExitWith::new(EXIT_BAD_INPUT, format!("--resume {path}: {e}"))
        })?),
        None => None,
    };
    // Verification parameters come from the flags on a fresh audit, and
    // from the checkpoint on a resumed one (where contradicting flags are
    // rejected; shards/batch/workers remain free — keys re-shard safely).
    let (semantics, window, horizon) = match &resume {
        Some(checkpoint) => {
            let p = &checkpoint.pipeline;
            reject_resume_conflict(args, "window", &p.window.to_string())?;
            reject_resume_conflict(args, "horizon", &p.horizon.to_string())?;
            (Semantics::recorded(args, p)?, p.window, Some(p.horizon))
        }
        None => {
            let horizon = match args.get("horizon") {
                Some(_) => Some(args.get_parsed("horizon", 0)?),
                None => None, // default: DEFAULT_HORIZON_WINDOWS x window
            };
            (Semantics::from_flags(args)?, args.get_parsed("window", 1024)?, horizon)
        }
    };
    let plan = Plan::from_flags(args, fleet, &semantics, window, horizon)?;
    let scale = plan.scale();
    let strict = args.flag("strict");
    let progress_every: u64 = args.get_parsed("progress-every", 0)?;
    let checkpoint_path = args.get("checkpoint");
    let input = args.positional(1).ok_or_else(|| {
        let command = if fleet { "serve" } else { "stream" };
        ArgError(format!("{command} requires an NDJSON file argument (or -)"))
    })?;
    let binary = format_flag(args)?;

    let mut source =
        open_input(input, binary, checkpoint_path.is_some() || resume.is_some())?;
    let mut malformed: Vec<String> = Vec::new();
    let mut total_malformed: u64 = 0;
    let mut engine = match &resume {
        Some(checkpoint) => {
            let verified = verify_prefix(source.as_mut(), checkpoint, input == "-")?;
            total_malformed = checkpoint.source.malformed;
            malformed = checkpoint.source.malformed_samples.clone();
            let engine = Engine::start(plan, Some((&checkpoint.pipeline, verified)))?;
            println!(
                "resumed {}from checkpoint v{} ({} ops, {} records{})",
                if fleet { "fleet " } else { "" },
                checkpoint.version,
                checkpoint.pipeline.ops_routed,
                checkpoint.source.lines,
                if verified { ", prefix verified" } else { ", prefix unverified" },
            );
            engine
        }
        None => Engine::start(plan, None)?,
    };
    let mut writer = checkpoint_path.map(|path| {
        CheckpointWriter::starting_at(
            path,
            resume.as_ref().map_or(0, |checkpoint| checkpoint.version),
        )
    });

    let mut records: u64 = 0;
    let mut depth_window = DepthWindow::default();
    // `while let` rather than `for`: the loop body needs the source back
    // each iteration (unit counts, fingerprints) for checkpoint metadata.
    while let Some(record) = source.next() {
        match record {
            Ok(record) => engine.push(&record)?,
            Err(e @ NdjsonError::Parse { .. }) => {
                if strict {
                    return Err(ExitWith::new(EXIT_BAD_INPUT, format!("--strict: {e}")));
                }
                total_malformed += 1;
                if malformed.len() < MALFORMED_SAMPLES {
                    malformed.push(e.to_string());
                }
            }
            Err(e) => return Err(e.into()),
        }
        records += 1;
        engine.after_record(records)?;
        if let Some(writer) = &mut writer {
            if engine.checkpoint_due() {
                let snapshot = engine.snapshot()?;
                let position = SourcePosition {
                    lines: source.units_read(),
                    fingerprint: source
                        .fingerprint()
                        .expect("checkpointing sessions always fingerprint"),
                    malformed: total_malformed,
                    malformed_samples: malformed.clone(),
                };
                writer.write(position, snapshot)?;
            }
        }
        if progress_every > 0 && records.is_multiple_of(progress_every) {
            // `kav serve` rejects --progress-every, so this is a pipeline.
            if let Engine::Local(pipeline) = &mut engine {
                let progress = pipeline.progress();
                let window_depth = depth_window.observe(&progress.depth_hist);
                let line = ProgressLine {
                    record: "progress",
                    lines: source.units_read(),
                    checkpoint_version: writer.as_ref().map_or(0, CheckpointWriter::version),
                    ops_routed: progress.ops_routed,
                    ops: progress.ops,
                    malformed: total_malformed,
                    keys: progress.keys,
                    segments: progress.segments,
                    violating_keys: progress.violating_keys,
                    errored_keys: progress.errored_keys,
                    horizon_breaches: progress.horizon_breaches,
                    orphaned_reads: progress.orphaned_reads,
                    resident: progress.resident,
                    peak_retired: progress.peak_retired,
                    depth_hist: progress.depth_hist,
                    window_depth,
                    shards: progress.shards,
                };
                eprintln!(
                    "{}",
                    serde_json::to_string(&line).expect("progress records serialize")
                );
            }
        }
    }
    let (output, summary) = engine.finish()?;
    let header = format!(
        "verified {} ops across {} keys ({}, window {}, {scale})",
        output.total_ops(),
        output.keys.len(),
        semantics_label(semantics.model, &semantics.algo, semantics.k),
        window.max(1),
    );
    report(&output, summary.as_ref(), &semantics, &header, &malformed, total_malformed)
}

/// Prints the report — the fleet summary when there is a fleet, the
/// header, the key table, malformed records and key errors — and picks
/// the exit code. A proven violation outranks input trouble: it is
/// reported first (the input problems were already printed). Bad input
/// without a violation exits with its own distinct code — "the tap is
/// broken" is not "the store is inconsistent".
fn report(
    output: &PipelineOutput,
    summary: Option<&FleetSummary>,
    semantics: &Semantics,
    header: &str,
    malformed: &[String],
    total_malformed: u64,
) -> CmdResult {
    let (model, k) = (semantics.model, semantics.k);
    if let Some(summary) = summary {
        println!(
            "fleet: {} workers ({} alive at the end), {} ranges, {} hand-offs \
             ({} uncertified), {} splits, {} frames dropped",
            summary.workers,
            summary.workers_alive,
            summary.ranges,
            summary.hand_offs,
            summary.uncertified_hand_offs,
            summary.splits,
            summary.frames_dropped,
        );
    }
    println!("{header}");
    print_key_table(output);
    for line in malformed {
        eprintln!("{line}");
    }
    if total_malformed > malformed.len() as u64 {
        eprintln!(
            "... and {} more malformed records",
            total_malformed - malformed.len() as u64
        );
    }
    for (key, error) in &output.errors {
        eprintln!("key {key}: {error}");
    }

    let violating =
        output.keys.iter().filter(|(_, r)| r.k_atomic() == Some(false)).count();
    if violating > 0 {
        return Err(ExitWith::new(
            EXIT_VIOLATION,
            format!("NO: {violating} keys {}", violation_label(model, k)),
        ));
    }
    if !output.errors.is_empty() {
        return Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!("{} keys had unusable streams", output.errors.len()),
        ));
    }
    if total_malformed > 0 {
        return Err(ExitWith::new(
            EXIT_BAD_INPUT,
            format!("{total_malformed} malformed records were skipped"),
        ));
    }
    let verdict = match summary {
        Some(summary) => fleet_verdict(output, summary),
        None => output.all_k_atomic(),
    };
    match verdict {
        Some(true) => println!(
            "YES: {}{}",
            certified_label(model, k),
            if summary.is_some() { " (fleet certified)" } else { "" }
        ),
        Some(false) => unreachable!("violations and errors are handled above"),
        None => match summary {
            Some(s) if s.uncertified_hand_offs > 0 || s.frames_dropped > 0 => println!(
                "UNKNOWN: no violation found, but {} hand-off(s) lost their replay \
                 and {} frames were dropped past the break; checkpoint at least \
                 every --replay-cap records (or rerun end to end) to certify",
                s.uncertified_hand_offs, s.frames_dropped,
            ),
            _ if output.keys.iter().any(|(_, r)| r.resumed_uncertified) => println!(
                "UNKNOWN: no violation found, but the resume chain could not be \
                 verified (non-seekable input); re-run the audit end to end, or \
                 resume from a file, to certify"
            ),
            _ => println!(
                "UNKNOWN: no violation found, but some reads outlived the window or \
                 the retirement horizon; rerun with a larger --window / --horizon \
                 to certify"
            ),
        },
    }
    Ok(())
}

/// The parenthesised semantics of a run: the classic `algo, k=N` pair
/// for k-atomicity, the model name for everything else.
fn semantics_label(model: ModelId, algo: &str, k: u64) -> String {
    if model.is_k_atomic() {
        format!("{algo}, k={k}")
    } else {
        format!("model {model}")
    }
}

/// "...keys <are not 2-atomic | violate the causal model>".
fn violation_label(model: ModelId, k: u64) -> String {
    if model.is_k_atomic() {
        format!("are not {k}-atomic")
    } else {
        format!("violate the {model} model")
    }
}

/// The certified-YES summary line, phrased per model.
fn certified_label(model: ModelId, k: u64) -> String {
    if model.is_k_atomic() {
        format!("every key is {k}-atomic")
    } else {
        format!("every key satisfies the {model} model")
    }
}

/// Prints the per-key report table shared by `kav stream` and
/// `kav serve` — the fleet's merged output renders exactly like a
/// single-process run.
fn print_key_table(output: &PipelineOutput) {
    println!("key | ops | segments | reads | depth mean/max | breach/orphan | verdict");
    for (key, report) in &output.keys {
        let verdict = match report.k_atomic() {
            Some(true) => "YES",
            Some(false) => "NO",
            None => "UNKNOWN",
        };
        println!(
            "{key:>3} | {:>5} | {:>8} | {:>5} | {:>7.2}/{:<4} | {:>6}/{:<6} | {verdict}",
            report.ops,
            report.segments,
            report.reads,
            report.mean_read_depth,
            report.max_read_depth,
            report.horizon_breaches,
            report.orphaned_reads,
        );
    }
}

/// One NDJSON progress record, written to stderr every
/// `--progress-every` records: machine-readable observability for audits
/// that run for hours (schema documented in docs/OPERATIONS.md).
#[derive(Serialize)]
struct ProgressLine {
    /// Always `"progress"` — distinguishes these records on a shared
    /// stderr stream.
    record: &'static str,
    /// Raw input lines consumed so far.
    lines: u64,
    /// Version of the last checkpoint written (0 before the first).
    checkpoint_version: u64,
    /// Operations pushed into the pipeline.
    ops_routed: u64,
    /// Operations accepted across all keys.
    ops: u64,
    /// Malformed records skipped.
    malformed: u64,
    /// Keys seen.
    keys: usize,
    /// Segments sealed and verified.
    segments: u64,
    /// Keys with a proven violation so far.
    violating_keys: usize,
    /// Keys whose stream failed.
    errored_keys: usize,
    /// Horizon-breach reads.
    horizon_breaches: u64,
    /// Orphaned reads.
    orphaned_reads: u64,
    /// Operations currently buffered.
    resident: u64,
    /// Retired-metadata high-water mark (largest of any key).
    peak_retired: usize,
    /// Staleness-depth histogram (bucket 0 = depth 0, bucket i covers
    /// depths [2^(i-1), 2^i)).
    depth_hist: Vec<u64>,
    /// Rolling staleness analytics: depth distribution of the reads that
    /// arrived during the last [`kav_core::DEFAULT_DEPTH_WINDOW`]
    /// progress intervals only (p50/p99/max are bucket upper bounds), so
    /// a staleness regression hours into an audit is visible immediately
    /// instead of being averaged away by the healthy prefix.
    window_depth: DepthStats,
    /// Per-shard breakdown.
    shards: Vec<ShardProgress>,
}

/// `kav reduce` — the Figure-5 bin-packing reduction.
pub fn reduce(args: &Args) -> CmdResult {
    let sizes: Vec<u64> = args
        .get("sizes")
        .ok_or_else(|| ArgError("reduce requires --sizes a,b,c".into()))?
        .split(',')
        .map(|s| s.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| ArgError("--sizes: expected comma-separated integers".into()))?;
    let bins: usize = args.get_parsed("bins", 2)?;
    let capacity: u64 = args.get_parsed("capacity", 10)?;
    let bp = BinPacking::new(sizes, bins, capacity)?;
    let instance = reduce_bin_packing(&bp);
    println!(
        "reduced {} items / {} bins / capacity {} -> {} ops, k = {}",
        bp.sizes().len(),
        bp.bins(),
        bp.capacity(),
        instance.history.len(),
        instance.k
    );
    if args.get_parsed("decide", true)? {
        let budget: u64 = args.get_parsed("budget", 10_000_000u64)?;
        let verdict = instance.decide(Some(budget));
        let exact = bp.solve_exact().is_some();
        println!("k-WAV verdict: {verdict}; exact bin packing: {}", if exact { "YES" } else { "NO" });
    }
    if args.get("out").is_some() {
        emit(&instance.history.to_raw(), args)?;
    }
    Ok(())
}
