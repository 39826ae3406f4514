//! `artifacts_bench` — sizes, load times and multi-process scale-out of
//! the binary artifacts: columnar dataset shards and model snapshots.
//!
//! The parent process runs the whole artifact lifecycle on the fixed-seed
//! training workload (the same one as the training bench):
//!
//! 1. writes the dataset as both TSV and columnar shard sets and asserts
//!    their merged digests are identical (the cross-format contract);
//! 2. trains a parser, saves a snapshot, loads it back, and asserts the
//!    `weights_digest` and top-k predictions survive the roundtrip;
//! 3. asserts snapshot load is ≥ 10× faster than training from scratch
//!    (the eager rebuild a replica would otherwise pay);
//! 4. spawns one child process per columnar shard (`--processes N` sets the
//!    shard count); each child loads the shared snapshot, reads its own
//!    shard, decodes every example, and prints a one-line JSON report the
//!    parent folds into the committed `BENCH_artifacts.json`.
//!
//! Any violated invariant panics, so a bare run is also the smoke gate CI
//! uses. Flags: `--processes N` (default 2), `--target N` (default 20),
//! `--paraphrase-sample N` (default 80), `--out PATH` (default
//! `BENCH_artifacts.json`), `--dir PATH` (artifact scratch directory).
//! Worker mode (`--worker --snapshot S --shard P`) is internal.

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use genie::{read_columnar_shard, DatasetFormat, ShardedDatasetWriter};
use genie_bench::{available_cpus, flag_value, json_object, training_workload};
use genie_nlp::intern::TokenStream;
use genie_server::json::{escape, Json};
use genie_templates::dedup::Fnv64;
use luinet::{LuinetParser, ModelConfig, ParserExample};

fn flag_str(args: &[String], flag: &str) -> Option<String> {
    let position = args.iter().position(|a| a == flag)?;
    args.get(position + 1).cloned()
}

/// The training configuration of the committed training-bench baseline,
/// so "snapshot load vs eager rebuild" compares against the same training
/// run the training bench measures.
fn bench_config() -> ModelConfig {
    ModelConfig {
        epochs: 3,
        seed: 11,
        threads: 1,
        ..ModelConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--worker") {
        worker(&args);
    } else {
        parent(&args);
    }
}

/// Child mode: load the shared snapshot, decode one columnar shard, report
/// one JSON line on stdout.
fn worker(args: &[String]) {
    let snapshot_path = flag_str(args, "--snapshot").expect("--worker requires --snapshot");
    let shard_path = flag_str(args, "--shard").expect("--worker requires --shard");

    let load_start = Instant::now();
    let parser = luinet::snapshot::load(Path::new(&snapshot_path)).expect("load snapshot");
    let load_secs = load_start.elapsed().as_secs_f64();

    let examples = read_columnar_shard(Path::new(&shard_path)).expect("read columnar shard");
    let sentences: Vec<&TokenStream> = examples.iter().map(|e| &e.sentence).collect();

    let decode_start = Instant::now();
    let predictions = parser.predict_batch_with_threads(&sentences, 1);
    let decode_secs = decode_start.elapsed().as_secs_f64();
    let decoded_tokens: usize = predictions.iter().map(Vec::len).sum();

    let shard_name = Path::new(&shard_path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    println!(
        "{}",
        json_object(&[
            ("shard", escape(&shard_name)),
            ("examples", examples.len().to_string()),
            ("decoded_tokens", decoded_tokens.to_string()),
            ("snapshot_load_secs", format!("{load_secs:.6}")),
            ("decode_secs", format!("{decode_secs:.6}")),
            (
                "examples_per_sec",
                format!("{:.1}", examples.len() as f64 / decode_secs.max(1e-9)),
            ),
        ])
    );
}

/// Digest a shard set through `merge_for_each`, restoring the newline each
/// merged line dropped so the digest matches the streamed
/// `render_tsv_row` bytes.
fn merged_digest(paths: &[PathBuf]) -> (u64, usize) {
    let mut hasher = Fnv64::new();
    let mut count = 0usize;
    ShardedDatasetWriter::merge_for_each(paths, |line| {
        hasher.write(line.as_bytes());
        hasher.write(b"\n");
        count += 1;
    })
    .expect("merge shard set");
    (hasher.finish(), count)
}

/// Total size in bytes of a set of files.
fn total_bytes(paths: &[PathBuf]) -> u64 {
    paths
        .iter()
        .map(|p| std::fs::metadata(p).expect("shard metadata").len())
        .sum()
}

/// Write the workload as one shard set, returning (paths, seconds, bytes
/// on disk including the columnar string table).
fn write_shards(
    examples: &[ParserExample],
    dir: &Path,
    shard_count: usize,
    format: DatasetFormat,
) -> (Vec<PathBuf>, f64, u64) {
    let stem = match format {
        DatasetFormat::Tsv => "tsv",
        DatasetFormat::Columnar => "col",
    };
    let start = Instant::now();
    let mut writer = ShardedDatasetWriter::create_with_format(dir, stem, shard_count, format)
        .expect("create shard writer");
    let table_path = writer.table_path().map(Path::to_path_buf);
    for example in examples {
        writer.write(example).expect("write example");
    }
    let paths = writer.finish().expect("finish shard set");
    let secs = start.elapsed().as_secs_f64();
    let mut all_files = paths.clone();
    all_files.extend(table_path);
    let bytes = total_bytes(&all_files);
    (paths, secs, bytes)
}

fn parent(args: &[String]) {
    let processes = flag_value(args, "--processes").unwrap_or(2).max(1);
    let target = flag_value(args, "--target").unwrap_or(20);
    let paraphrase_sample = flag_value(args, "--paraphrase-sample").unwrap_or(80);
    let out_path = flag_str(args, "--out").unwrap_or_else(|| "BENCH_artifacts.json".to_owned());
    let dir = flag_str(args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("genie-artifacts-{}", std::process::id()))
        });
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let cpus = available_cpus();
    let config = bench_config();

    println!(
        "artifacts bench: target={target} paraphrase_sample={paraphrase_sample} \
         processes={processes} cpus={cpus} dir={}",
        dir.display()
    );
    let examples = training_workload(target, paraphrase_sample);
    println!("workload: {} examples", examples.len());

    // Dataset artifacts: both formats, byte-compatible digests.
    let (tsv_paths, tsv_secs, tsv_bytes) =
        write_shards(&examples, &dir, processes, DatasetFormat::Tsv);
    let (col_paths, col_secs, col_bytes) =
        write_shards(&examples, &dir, processes, DatasetFormat::Columnar);
    let (tsv_digest, tsv_count) = merged_digest(&tsv_paths);
    let (col_digest, col_count) = merged_digest(&col_paths);
    assert_eq!(tsv_count, examples.len());
    assert_eq!(col_count, examples.len());
    assert_eq!(
        tsv_digest, col_digest,
        "TSV and columnar merged digests diverged"
    );
    println!(
        "dataset: digest={tsv_digest:016x} tsv={tsv_bytes}B columnar={col_bytes}B \
         ({:.2}x smaller)",
        tsv_bytes as f64 / col_bytes as f64
    );

    // Model snapshot: train once (the eager rebuild every replica would
    // otherwise pay), save, load, verify the roundtrip.
    let train_start = Instant::now();
    let mut parser = LuinetParser::new(config.clone());
    parser.train(&examples);
    let train_secs = train_start.elapsed().as_secs_f64();
    let weights_digest = parser.weights_digest();

    let snapshot_path = dir.join("model.snap");
    let save_start = Instant::now();
    parser.save_snapshot(&snapshot_path).expect("save snapshot");
    let save_secs = save_start.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snapshot_path)
        .expect("snapshot metadata")
        .len();

    // Best of three loads: a single measurement of a ~20ms load is at the
    // mercy of one bad scheduler timeslice, and the minimum is the honest
    // figure for "what does loading this artifact cost".
    let mut loaded = None;
    let mut load_secs = f64::INFINITY;
    for _ in 0..3 {
        let load_start = Instant::now();
        let parser = LuinetParser::load_snapshot(&snapshot_path).expect("load snapshot");
        load_secs = load_secs.min(load_start.elapsed().as_secs_f64());
        loaded = Some(parser);
    }
    let loaded = loaded.expect("at least one load ran");

    assert_eq!(
        loaded.weights_digest(),
        weights_digest,
        "weights_digest did not survive the snapshot roundtrip"
    );
    for example in examples.iter().take(5) {
        assert_eq!(
            loaded.predict_topk(&example.sentence, 3),
            parser.predict_topk(&example.sentence, 3),
            "predictions did not survive the snapshot roundtrip"
        );
    }
    let load_speedup = train_secs / load_secs.max(1e-9);
    assert!(
        load_speedup >= 10.0,
        "snapshot load ({load_secs:.4}s) must be >= 10x faster than training \
         ({train_secs:.4}s), got {load_speedup:.1}x"
    );
    println!(
        "snapshot: {snapshot_bytes}B save={save_secs:.4}s load={load_secs:.4}s \
         train={train_secs:.3}s load_speedup={load_speedup:.0}x digest={weights_digest:016x}"
    );

    // Multi-process scale-out: one child per columnar shard, all sharing
    // the one snapshot artifact.
    let exe = std::env::current_exe().expect("current exe");
    let wall_start = Instant::now();
    let mut children = Vec::new();
    for shard_path in &col_paths {
        let child = Command::new(&exe)
            .arg("--worker")
            .arg("--snapshot")
            .arg(&snapshot_path)
            .arg("--shard")
            .arg(shard_path)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn worker");
        children.push(child);
    }
    let mut workers = Vec::new();
    for child in children {
        let output = child.wait_with_output().expect("wait for worker");
        assert!(output.status.success(), "worker failed: {}", output.status);
        let stdout = String::from_utf8(output.stdout).expect("worker stdout is UTF-8");
        let report = stdout
            .lines()
            .rev()
            .find(|line| !line.trim().is_empty())
            .expect("worker printed a report")
            .to_owned();
        workers.push(report);
    }
    let wall_secs = wall_start.elapsed().as_secs_f64();

    let reports: Vec<Json> = workers
        .iter()
        .map(|w| Json::parse(w).expect("worker report is JSON"))
        .collect();
    let number = |report: &Json, key: &str| {
        report
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("worker report lacks `{key}`"))
    };
    let total_examples: f64 = reports.iter().map(|r| number(r, "examples")).sum();
    let total_load: f64 = reports
        .iter()
        .map(|r| number(r, "snapshot_load_secs"))
        .sum();
    assert_eq!(total_examples as usize, examples.len());
    for report in &reports {
        println!(
            "worker {}: {} examples, {} ex/s",
            report.get("shard").and_then(Json::as_str).unwrap_or("?"),
            number(report, "examples"),
            number(report, "examples_per_sec"),
        );
    }
    let aggregate_rate = total_examples / wall_secs.max(1e-9);
    println!(
        "processes: {processes} workers, wall={wall_secs:.3}s, \
         aggregate={aggregate_rate:.0} examples/sec, mean worker load={:.4}s",
        total_load / workers.len() as f64
    );

    let report = json_object(&[
        ("bench", escape("artifacts")),
        ("smoke", "true".to_owned()),
        ("cpus", cpus.to_string()),
        (
            "config",
            json_object(&[
                ("target_per_rule", target.to_string()),
                ("paraphrase_sample", paraphrase_sample.to_string()),
                ("epochs", config.epochs.to_string()),
                ("seed", config.seed.to_string()),
                ("train_shards", config.train_shards.to_string()),
                ("processes", processes.to_string()),
            ]),
        ),
        ("examples", examples.len().to_string()),
        (
            "dataset",
            json_object(&[
                ("tsv_bytes", tsv_bytes.to_string()),
                ("columnar_bytes", col_bytes.to_string()),
                (
                    "columnar_to_tsv_ratio",
                    format!("{:.4}", col_bytes as f64 / tsv_bytes as f64),
                ),
                ("tsv_write_secs", format!("{tsv_secs:.6}")),
                ("columnar_write_secs", format!("{col_secs:.6}")),
                ("dataset_digest", escape(&format!("{tsv_digest:016x}"))),
                ("formats_agree", "true".to_owned()),
            ]),
        ),
        (
            "snapshot",
            json_object(&[
                ("bytes", snapshot_bytes.to_string()),
                ("train_secs", format!("{train_secs:.6}")),
                ("save_secs", format!("{save_secs:.6}")),
                ("load_secs", format!("{load_secs:.6}")),
                ("load_speedup_vs_train", format!("{load_speedup:.1}")),
                ("weights_digest", escape(&format!("{weights_digest:016x}"))),
                ("roundtrip_ok", "true".to_owned()),
            ]),
        ),
        (
            "processes",
            json_object(&[
                ("count", processes.to_string()),
                ("wall_secs", format!("{wall_secs:.6}")),
                ("total_examples", (total_examples as usize).to_string()),
                ("aggregate_examples_per_sec", format!("{aggregate_rate:.1}")),
                ("workers", format!("[{}]", workers.join(", "))),
            ]),
        ),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write report");
    println!("report written to {out_path}");

    if flag_str(args, "--dir").is_none() {
        std::fs::remove_dir_all(&dir).expect("clean artifact dir");
    }
}
