//! The training bench: throughput of the LUInet trainer and decoder,
//! written as machine-readable `BENCH_training.json` for the CI perf
//! trajectory.
//!
//! The report measures, on a fixed-seed pipeline workload:
//!
//! * **train examples/sec** — example-visits per second of a full
//!   `LuinetParser::train` run at `threads = 1` (the honest sequential
//!   number; the container CI runs on is single-core, so parallel speedup
//!   is reported informationally at {2, 8} threads but not gated);
//! * **decode tokens/sec** — greedy decode throughput over a slice of the
//!   workload;
//! * **weights digest** — [`luinet::LuinetParser::weights_digest`] of the
//!   trained model, asserted byte-identical across worker counts
//!   {1, 2, 8} before anything is reported;
//! * **exact-match accuracy** on the training set — the model-quality
//!   guard: the committed value must reproduce exactly (training is a
//!   pure function of data + config);
//! * **peak-RSS delta** (`VmHWM`) over the measured runs.
//!
//! The baseline constants record the pre-symbol-rewrite trainer (string
//! candidates, monolithic per-bucket feature hashing, fully sequential
//! epochs) measured on this container immediately before the rewrite; the
//! CI regression gate compares fresh smoke runs against the *committed*
//! `BENCH_training.json`, so the constants only document where the
//! trajectory started.
//!
//! Environment: `GENIE_BENCH_SMOKE=1` shrinks the workload to CI-smoke
//! size; `GENIE_BENCH_TRAINING_JSON=path` overrides where the JSON report
//! is written (default `BENCH_training.json` in the working directory).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use genie_bench::{json_object, training_workload};
use genie_nlp::TokenStream;
use genie_server::json::escape;
use luinet::{LuinetParser, ModelConfig, ParserExample};

/// The pre-rewrite sequential trainer on the smoke workload (667 examples,
/// 3 epochs, threads = 1), measured on the CI container.
const BASELINE_TRAIN_EXAMPLES_PER_SEC: f64 = 1103.0;
const BASELINE_DECODE_TOKENS_PER_SEC: f64 = 22471.0;
const BASELINE_TRAIN_ACCURACY: f64 = 0.5307;

fn bench_config(threads: usize) -> ModelConfig {
    ModelConfig {
        epochs: 3,
        seed: 11,
        threads,
        ..ModelConfig::default()
    }
}

fn train(examples: &[ParserExample], threads: usize) -> LuinetParser {
    let mut parser = LuinetParser::new(bench_config(threads));
    parser.train(examples);
    parser
}

fn bench_training_report(_c: &mut Criterion) {
    let smoke = std::env::var("GENIE_BENCH_SMOKE").is_ok();
    let (target_per_rule, paraphrase_sample) = if smoke { (20, 80) } else { (60, 240) };
    let samples: u32 = if smoke { 5 } else { 3 };
    let examples = training_workload(target_per_rule, paraphrase_sample);
    let epochs = bench_config(1).epochs;
    let rss_start_kb = genie_bench::peak_rss_kb();

    // --- Determinism first: the digest must be byte-identical across
    // worker counts before any number is worth reporting. ---
    let sequential = train(&examples, 1);
    let digest = sequential.weights_digest();
    for threads in [2usize, 8] {
        let parallel = train(&examples, threads);
        assert_eq!(
            parallel.weights_digest(),
            digest,
            "trained weights differ at {threads} threads"
        );
    }

    // --- Train throughput (sequential; the gated number). ---
    let start = Instant::now();
    for _ in 0..samples {
        black_box(train(&examples, 1).trained_examples());
    }
    let train_secs = start.elapsed().as_secs_f64() / samples as f64;
    let visits = examples.len() * epochs;
    let train_rate = visits as f64 / train_secs;

    // --- Decode throughput (greedy, sequential). ---
    let sentences: Vec<&TokenStream> = examples.iter().take(200).map(|e| &e.sentence).collect();
    let decoded = sequential.predict_batch_with_threads(&sentences, 1);
    let tokens: usize = decoded.iter().map(|p| p.len()).sum();
    let start = Instant::now();
    for _ in 0..samples {
        black_box(sequential.predict_batch_with_threads(&sentences, 1));
    }
    let decode_secs = start.elapsed().as_secs_f64() / samples as f64;
    let decode_rate = tokens as f64 / decode_secs;

    let accuracy = sequential.exact_match_accuracy(&examples);
    let rss_end_kb = genie_bench::peak_rss_kb();
    let rss_delta_kb = match (rss_start_kb, rss_end_kb) {
        (Some(start), Some(end)) => Some(end.saturating_sub(start)),
        _ => None,
    };

    println!(
        "training: {} examples x {epochs} epochs; train {train_rate:>8.0} examples/sec \
         ({:.2}x baseline); decode {decode_rate:>8.0} tokens/sec ({:.2}x baseline); \
         accuracy {accuracy:.4}; weights digest {digest:016x} (byte-identical at 1/2/8 threads); \
         peak-rss-delta {} kB",
        examples.len(),
        train_rate / BASELINE_TRAIN_EXAMPLES_PER_SEC,
        decode_rate / BASELINE_DECODE_TOKENS_PER_SEC,
        rss_delta_kb.map_or("n/a".to_owned(), |kb| kb.to_string()),
    );

    let report = json_object(&[
        ("bench", escape("training")),
        ("smoke", smoke.to_string()),
        (
            "config",
            json_object(&[
                ("examples", examples.len().to_string()),
                ("epochs", epochs.to_string()),
                ("seed", bench_config(1).seed.to_string()),
                ("train_shards", bench_config(1).train_shards.to_string()),
                ("target_per_rule", target_per_rule.to_string()),
                ("paraphrase_sample", paraphrase_sample.to_string()),
            ]),
        ),
        (
            "baseline",
            json_object(&[
                ("label", escape("pre-rewrite sequential string trainer")),
                (
                    "train_examples_per_sec",
                    format!("{BASELINE_TRAIN_EXAMPLES_PER_SEC:.1}"),
                ),
                (
                    "decode_tokens_per_sec",
                    format!("{BASELINE_DECODE_TOKENS_PER_SEC:.1}"),
                ),
                (
                    "exact_match_accuracy",
                    format!("{BASELINE_TRAIN_ACCURACY:.4}"),
                ),
            ]),
        ),
        ("train_examples_per_sec", format!("{train_rate:.1}")),
        ("train_seconds", format!("{train_secs:.6}")),
        ("decode_tokens_per_sec", format!("{decode_rate:.1}")),
        ("decode_sentences", sentences.len().to_string()),
        (
            "train_speedup_vs_baseline",
            format!("{:.4}", train_rate / BASELINE_TRAIN_EXAMPLES_PER_SEC),
        ),
        (
            "decode_speedup_vs_baseline",
            format!("{:.4}", decode_rate / BASELINE_DECODE_TOKENS_PER_SEC),
        ),
        ("weights_digest", escape(&format!("{digest:016x}"))),
        ("digest_thread_invariant", "[1, 2, 8]".to_owned()),
        ("exact_match_accuracy", format!("{accuracy:.4}")),
        (
            "peak_rss_delta_kb",
            rss_delta_kb.map_or("null".to_owned(), |kb| kb.to_string()),
        ),
    ]);
    let path = std::env::var("GENIE_BENCH_TRAINING_JSON")
        .unwrap_or_else(|_| "BENCH_training.json".to_owned());
    std::fs::write(&path, format!("{report}\n")).expect("write BENCH_training.json");
    println!("wrote {path}");
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_training_report
);
criterion_main!(benches);
