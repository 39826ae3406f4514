//! Benches for the NL-template synthesizer (§3.1): full sampled synthesis
//! at two target sizes, policy synthesis, the synthesis-throughput
//! comparison between the sequential and the batched streaming engine at
//! depth 5, and the machine-readable `BENCH_synthesis.json` report
//! (sentences/sec + peak resident-set delta) that CI uploads as an
//! artifact. The paper reports that full-scale synthesis (100,000 samples
//! per rule, depth 5) takes ~25 minutes; these benches track the
//! per-sample cost and the parallel speedup.
//!
//! Environment: `GENIE_BENCH_SMOKE=1` shrinks the streaming report to
//! CI-smoke size; `GENIE_BENCH_JSON=path` overrides where the JSON report
//! is written (default `BENCH_synthesis.json` in the working directory).

use std::hash::Hasher;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use genie_bench::json_object;
use genie_server::json::escape;
use genie_templates::dedup::Fnv64;
use genie_templates::{GeneratorConfig, SentenceGenerator};
use thingpedia::Thingpedia;

fn depth5_config(target: usize, threads: usize) -> GeneratorConfig {
    GeneratorConfig {
        target_per_rule: target,
        max_depth: 5,
        instantiations_per_template: 1,
        seed: 1,
        include_aggregation: false,
        include_timers: true,
        threads,
        quiet: true,
        ..GeneratorConfig::default()
    }
}

fn bench_synthesis(c: &mut Criterion) {
    let library = Thingpedia::builtin();
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    for target in [10usize, 40] {
        group.bench_with_input(
            BenchmarkId::new("target_per_rule", target),
            &target,
            |b, &target| {
                b.iter(|| {
                    let generator = SentenceGenerator::new(&library, depth5_config(target, 0));
                    black_box(generator.synthesize())
                })
            },
        );
    }
    group.finish();
}

/// Sentences/sec at depth 5, sequential vs parallel, plus the speedup and a
/// check that both engines produce byte-identical output.
fn bench_parallel_throughput(c: &mut Criterion) {
    let library = Thingpedia::builtin();
    // GENIE_BENCH_SMOKE shrinks every bench in this file, so the CI smoke
    // job pays smoke prices for the whole invocation.
    let smoke = std::env::var("GENIE_BENCH_SMOKE").is_ok();
    let target: usize = if smoke { 60 } else { 400 };
    let samples: u32 = if smoke { 2 } else { 5 };

    let measure = |threads: usize| -> (f64, usize, Vec<genie_templates::SynthesizedExample>) {
        let generator = SentenceGenerator::new(&library, depth5_config(target, threads));
        let mut out = generator.synthesize();
        let start = Instant::now();
        for _ in 0..samples {
            out = black_box(generator.synthesize());
        }
        let per_run = start.elapsed().as_secs_f64() / samples as f64;
        (out.len() as f64 / per_run, out.len(), out)
    };

    let (seq_rate, count, seq_out) = measure(1);
    let (par_rate, _, par_out) = measure(0);
    assert_eq!(seq_out, par_out, "parallel output must be byte-identical");
    // On a single-CPU host the "parallel" run is the sequential run plus
    // thread overhead, so the ratio is noise, not a speedup — skip it.
    let speedup = if genie_bench::available_cpus() > 1 {
        format!("speedup {:.2}x", par_rate / seq_rate)
    } else {
        "speedup n/a (1 cpu)".to_owned()
    };
    println!(
        "synthesis-throughput depth=5 target={target}: {count} sentences; \
         sequential {seq_rate:>10.0} sentences/sec; parallel {par_rate:>10.0} sentences/sec; \
         {speedup}"
    );

    let mut group = c.benchmark_group("synthesis_throughput_depth5");
    group.sample_size(samples as usize);
    for (name, threads) in [("sequential", 1usize), ("parallel", 0)] {
        group.bench_with_input(
            BenchmarkId::new("threads", name),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let generator =
                        SentenceGenerator::new(&library, depth5_config(target, threads));
                    black_box(generator.synthesize())
                })
            },
        );
    }
    group.finish();
}

/// Dedup-strategy trajectory on identical output: the original engine
/// rendered `utterance\tprogram` into a `BTreeSet<String>`; PR 1 hashed the
/// rendered text into `u128` fingerprints; this PR fingerprints the interned
/// symbol ids directly — no utterance byte is touched.
fn bench_dedup_strategies(c: &mut Criterion) {
    use std::collections::{BTreeSet, HashSet};

    let library = Thingpedia::builtin();
    let generator = SentenceGenerator::new(&library, depth5_config(200, 0));
    let interner = generator.interner().clone();
    let examples = generator.synthesize();
    let rendered: Vec<String> = examples
        .iter()
        .map(|e| interner.render(&e.utterance))
        .collect();
    let fingerprints: Vec<(u64, u64)> = examples
        .iter()
        .map(|e| genie_templates::dedup::program_fingerprints(&e.program))
        .collect();
    let mut group = c.benchmark_group("dedup");
    group.sample_size(20);
    group.bench_function("legacy_rendered_strings", |b| {
        b.iter(|| {
            let mut seen: BTreeSet<String> = BTreeSet::new();
            for (example, text) in examples.iter().zip(&rendered) {
                seen.insert(format!("{}\t{}", text, example.program));
            }
            black_box(seen.len())
        })
    });
    group.bench_function("string_hash_keys", |b| {
        b.iter(|| {
            let mut seen: HashSet<u128> = HashSet::new();
            for (example, text) in examples.iter().zip(&rendered) {
                seen.insert(genie_templates::dedup::example_key(text, &example.program));
            }
            black_box(seen.len())
        })
    });
    group.bench_function("interned_symbol_keys", |b| {
        b.iter(|| {
            let mut seen: HashSet<u128> = HashSet::new();
            for (example, &fp) in examples.iter().zip(&fingerprints) {
                seen.insert(genie_templates::dedup::example_stream_key(
                    &example.utterance,
                    fp,
                ));
            }
            black_box(seen.len())
        })
    });
    group.finish();
}

/// The streaming-engine report: sentences/sec (sequential vs parallel),
/// peak resident-set delta over the run, the extra high-water growth a
/// materializing (collecting) run causes on top of the streaming runs, and
/// a dataset digest, written as machine-readable `BENCH_synthesis.json`
/// for the CI perf trajectory.
///
/// `VmHWM` is a monotonic process-lifetime high-water mark, so this report
/// runs **first** in the bench group — otherwise the earlier benches would
/// have already raised the mark and the delta would read 0.
fn bench_streaming_report(_c: &mut Criterion) {
    let library = Thingpedia::builtin();
    let smoke = std::env::var("GENIE_BENCH_SMOKE").is_ok();
    let target = if smoke { 60 } else { 400 };
    // The smoke run feeds the CI regression gate, so it takes many samples:
    // a single smoke synthesis finishes in well under a millisecond, far
    // inside wall-clock jitter.
    let samples: u32 = if smoke { 40 } else { 5 };
    let config = depth5_config(target, 0);
    // Warm the shared intern arena before the RSS baseline: the pre-seeded
    // vocabulary is a fixed one-time allocation, not per-run growth — the
    // report measures what the *streaming runs* add to the high-water mark.
    let _ = genie_templates::intern::shared();
    let rss_start_kb = genie_bench::peak_rss_kb();

    let measure = |threads: usize| -> (usize, f64, u64) {
        let generator = SentenceGenerator::new(&library, depth5_config(target, threads));
        let interner = generator.interner().clone();
        // Warm-up run also computes the dataset digest for the report. The
        // digest hashes the *rendered* utterance bytes, so it is directly
        // comparable with the pre-interning trajectory.
        let mut hasher = Fnv64::new();
        let mut count = 0usize;
        let mut buf = String::new();
        generator.synthesize_streaming(|example| {
            interner.render_into(&example.utterance, &mut buf);
            hasher.write(buf.as_bytes());
            hasher.write(example.program.to_string().as_bytes());
            count += 1;
        });
        let digest = hasher.finish();
        let start = Instant::now();
        for _ in 0..samples {
            let mut sink_count = 0usize;
            let stats = generator.synthesize_streaming(|example| {
                sink_count += 1;
                black_box(&example);
            });
            assert_eq!(sink_count, count, "stream size changed between runs");
            black_box(stats);
        }
        (
            count,
            start.elapsed().as_secs_f64() / samples as f64,
            digest,
        )
    };

    let (sequential_count, sequential_secs, sequential_digest) = measure(1);
    let (parallel_count, parallel_secs, parallel_digest) = measure(0);
    assert_eq!(sequential_count, parallel_count);
    assert_eq!(
        sequential_digest, parallel_digest,
        "parallel streaming output must be byte-identical"
    );
    let rss_end_kb = genie_bench::peak_rss_kb();
    let rss_delta_kb = match (rss_start_kb, rss_end_kb) {
        (Some(start), Some(end)) => Some(end.saturating_sub(start)),
        _ => None,
    };

    // Materialize the same dataset as a Vec: any further high-water growth
    // is the resident cost the streaming path avoids.
    let collected = SentenceGenerator::new(&library, depth5_config(target, 0)).synthesize();
    assert_eq!(collected.len(), parallel_count);
    black_box(&collected);
    let rss_after_collect_kb = genie_bench::peak_rss_kb();
    drop(collected);
    let collect_extra_rss_kb = match (rss_end_kb, rss_after_collect_kb) {
        (Some(streamed), Some(collected)) => Some(collected.saturating_sub(streamed)),
        _ => None,
    };

    let sequential_rate = sequential_count as f64 / sequential_secs;
    let parallel_rate = parallel_count as f64 / parallel_secs;
    // A parallel-vs-sequential ratio is only a speedup when there is more
    // than one CPU to run on; on a 1-CPU host the parallel run just pays
    // thread overhead, so the report records `null` instead of a misleading
    // sub-1.0 figure.
    let cpus = genie_bench::available_cpus();
    let speedup = if cpus > 1 {
        format!("{:.4}", parallel_rate / sequential_rate)
    } else {
        "null".to_owned()
    };
    println!(
        "synthesis-streaming depth=5 target={target} cpus={cpus}: {sequential_count} sentences; \
         sequential {sequential_rate:>10.0} sentences/sec; parallel {parallel_rate:>10.0} \
         sentences/sec; speedup {}; peak-rss-delta {} kB; collect-extra-rss {} kB",
        if cpus > 1 {
            format!("{:.2}x", parallel_rate / sequential_rate)
        } else {
            "n/a (1 cpu)".to_owned()
        },
        rss_delta_kb.map_or("n/a".to_owned(), |kb| kb.to_string()),
        collect_extra_rss_kb.map_or("n/a".to_owned(), |kb| kb.to_string()),
    );

    let run_json = |mode: &str, threads: usize, count: usize, secs: f64| {
        json_object(&[
            ("mode", escape(mode)),
            ("threads", threads.to_string()),
            ("sentences", count.to_string()),
            ("seconds", format!("{secs:.6}")),
            ("sentences_per_sec", format!("{:.1}", count as f64 / secs)),
        ])
    };
    // The recorded pre-interning trajectory point: the PR 2 string-based
    // engine measured on the CI container at the smoke workload, immediately
    // before the interned token-stream engine replaced it. The regression
    // gate in CI compares fresh runs against the *committed*
    // BENCH_synthesis.json, so this constant only documents where the
    // trajectory started.
    const BASELINE_SEQUENTIAL_SENTENCES_PER_SEC: f64 = 375_704.0;
    const BASELINE_PEAK_RSS_DELTA_KB: u64 = 2424;
    const BASELINE_DIGEST: &str = "89cdf1573252580e";

    let report = json_object(&[
        ("bench", escape("synthesis")),
        ("smoke", smoke.to_string()),
        ("cpus", cpus.to_string()),
        (
            "config",
            json_object(&[
                ("target_per_rule", target.to_string()),
                ("max_depth", config.max_depth.to_string()),
                ("batch_size", config.batch_size.to_string()),
                ("shards", config.shards.to_string()),
                ("seed", config.seed.to_string()),
            ]),
        ),
        (
            "baseline",
            json_object(&[
                ("label", escape("pre-interning string engine")),
                (
                    "sentences_per_sec_sequential",
                    format!("{BASELINE_SEQUENTIAL_SENTENCES_PER_SEC:.1}"),
                ),
                ("peak_rss_delta_kb", BASELINE_PEAK_RSS_DELTA_KB.to_string()),
                ("dataset_digest", escape(BASELINE_DIGEST)),
            ]),
        ),
        (
            "runs",
            format!(
                "[{}, {}]",
                run_json("sequential", 1, sequential_count, sequential_secs),
                run_json("parallel", 0, parallel_count, parallel_secs),
            ),
        ),
        ("speedup", speedup),
        (
            "speedup_vs_baseline",
            format!(
                "{:.4}",
                sequential_rate / BASELINE_SEQUENTIAL_SENTENCES_PER_SEC
            ),
        ),
        (
            "peak_rss_start_kb",
            rss_start_kb.map_or("null".to_owned(), |kb| kb.to_string()),
        ),
        (
            "peak_rss_end_kb",
            rss_end_kb.map_or("null".to_owned(), |kb| kb.to_string()),
        ),
        (
            "peak_rss_delta_kb",
            rss_delta_kb.map_or("null".to_owned(), |kb| kb.to_string()),
        ),
        (
            "collect_extra_rss_kb",
            collect_extra_rss_kb.map_or("null".to_owned(), |kb| kb.to_string()),
        ),
        ("dataset_digest", escape(&format!("{parallel_digest:016x}"))),
    ]);
    let path =
        std::env::var("GENIE_BENCH_JSON").unwrap_or_else(|_| "BENCH_synthesis.json".to_owned());
    std::fs::write(&path, format!("{report}\n")).expect("write BENCH_synthesis.json");
    println!("wrote {path}");
}

fn bench_policy_synthesis(c: &mut Criterion) {
    let library = Thingpedia::builtin();
    c.bench_function("synthesize_policies", |b| {
        b.iter(|| {
            let generator = SentenceGenerator::new(
                &library,
                GeneratorConfig {
                    target_per_rule: 20,
                    max_depth: 3,
                    instantiations_per_template: 1,
                    seed: 2,
                    include_aggregation: false,
                    include_timers: false,
                    threads: 0,
                    ..GeneratorConfig::default()
                },
            );
            black_box(generator.synthesize_policies())
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    // The streaming report must run first: it measures VmHWM deltas, and the
    // high-water mark is process-monotonic.
    targets = bench_streaming_report, bench_synthesis, bench_parallel_throughput, bench_dedup_strategies, bench_policy_synthesis
);
criterion_main!(benches);
