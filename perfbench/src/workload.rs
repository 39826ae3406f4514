//! The workloads: what each sends, the phases of a run, and the
//! correctness oracle that every run applies.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use genie::engine::ParseRequest;
use genie::pipeline::{DataPipeline, NnOptions};
use genie_server::api;
use genie_server::json::{escape, Json};
use thingpedia::Thingpedia;

use crate::inputs::{self, Delta, DeltaKind, DeltaPlan, Digest, UniquePool, Utterance, Zipf};
use crate::load::{self, Client, PhaseStats, Record};
use crate::search::{self, SearchOutcome, StepStats};
use crate::stats;
use crate::world::{self, ColdBuild, Served, SetupTimes};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Most `max_rps` search steps; together they take half of `--seconds`.
pub const SEARCH_STEPS: usize = 8;
/// Blocks the fixed-rate reads are split into; `p50_ms` is the median of
/// the blocks' medians.
pub const FIXED_BLOCKS: usize = 3;
/// Search steps between two fixed-rate blocks.
const STEPS_PER_BLOCK: usize = 3;
/// Stop bisecting once the bracket is within this ratio (4%, finer than
/// the `max_rps` bound).
pub const SEARCH_RESOLUTION: f64 = 0.04;
/// Utterances `exact_match` is computed over on the unique-read workloads
/// (the first ones of the seeded pool, whether or not the search sent them).
pub const EVAL_UTTERANCES: usize = 6000;
/// Distinct commands the repeat workload draws from.
pub const REPEAT_COMMANDS: usize = 256;
/// Seeded training commands the repeat set is taken from, in order: the
/// first [`REPEAT_COMMANDS`] the served model answers. A `NoParse` answer
/// is never cached, so it could not exercise the cache.
pub const REPEAT_CANDIDATES: usize = 768;
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Unique utterances sent before the measured phases.
pub const UNIQUE_WARMUP: usize = 50;
/// Reloads each run posts back to back after its reads: four content edits
/// and, fourth, one structural delta (a full rebuild).
pub const RELOADS: usize = 5;
/// Times a reload answered `409 reload_in_progress` is retried, after
/// [`BUSY_PAUSE`]. The server clears its busy flag only after sending the
/// previous reload's report, so a client posting the next reload at once
/// can be refused; the pause counts in that reload's latency.
pub const BUSY_RETRIES: usize = 3;
pub const BUSY_PAUSE: std::time::Duration = std::time::Duration::from_millis(10);
/// `parse-repeat` is rejected below this cache hit share.
pub const MIN_REPEAT_HIT_SHARE: f64 = 0.8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Distinct realistic utterances: the response cache never answers.
    Unique,
    /// A Zipf draw over a small set of training-distribution commands.
    Repeat,
}

/// One workload's traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub traffic: Traffic,
    /// Keep-alive connections the reads use.
    pub read_conns: usize,
    /// Offered rate of the fixed-rate phase, requests/s.
    pub fixed_rate: f64,
    /// The latency limit `max_rps` is searched against, ms.
    pub limit_ms: f64,
}

pub const SPECS: [Spec; 2] = [
    Spec {
        name: "parse-unique",
        traffic: Traffic::Unique,
        read_conns: 2,
        // About a third of the coalescer's cycle: latency stays near the
        // service time instead of following the host's spare CPU.
        fixed_rate: 100.0,
        limit_ms: 50.0,
    },
    Spec {
        name: "parse-repeat",
        traffic: Traffic::Repeat,
        read_conns: 2,
        // Requests 5 ms apart, well clear of the coalescer's ~2.4 ms
        // cycle on a cache hit, so the tail does not sit on the edge
        // between arriving idle and arriving mid-batch.
        fixed_rate: 200.0,
        limit_ms: 25.0,
    },
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Fixed,
    Search,
}

/// A read the load generator sent.
#[derive(Debug, Clone)]
pub struct Sent {
    pub phase: Phase,
    /// Index into the workload's utterances.
    pub item: usize,
    pub record: Record,
}

/// One reload the writer connection ran.
#[derive(Debug, Clone)]
pub struct Reload {
    pub delta: Delta,
    pub status: u16,
    /// POST sent until the swap report arrived (the new version serves).
    pub latency_ms: f64,
    pub version: u64,
    pub full_rebuild: bool,
    pub total_batches: u64,
    pub reused_batches: u64,
    pub emitted_examples: u64,
    pub swap_latency_us: u64,
    /// The served weights digest right after this reload (full rebuilds).
    pub digest: Option<u64>,
    /// The transport error, when the reload got no response.
    pub error: Option<String>,
    /// `409 reload_in_progress` answers retried before this reload ran.
    pub busy_retries: usize,
}

/// Everything a run produced that the checks and the layer metrics read.
pub struct Run {
    pub spec: Spec,
    pub seed: u64,
    pub utterances: Vec<Utterance>,
    pub sent: Vec<Sent>,
    /// All fixed-rate reads, and each of their blocks.
    pub fixed: PhaseStats,
    pub blocks: Vec<PhaseStats>,
    pub search: SearchOutcome,
    /// The rate the generator actually offered in the best passing step.
    pub max_rps: f64,
    pub reloads: Vec<Reload>,
    pub setups: Vec<SetupTimes>,
    pub metrics_text: String,
    /// Engine counters and cache size when the reads ended.
    pub engine: genie::EngineStats,
    pub cache_entries: usize,
    pub intern_growth: usize,
    pub peak_rss_mb: f64,
}

pub fn parse_wire(text: &str) -> Vec<u8> {
    load::post("/v1/parse", &format!("{{\"utterance\": {}}}", escape(text)))
}

/// A scalar field of a flat JSON response body.
fn json_u64(body: &Json, field: &str) -> u64 {
    body.get(field).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn weights_digest(body: &str) -> Option<u64> {
    let json = Json::parse(body).ok()?;
    let hex = json.get("weights_digest")?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Post `count` deltas back to back on one keep-alive connection.
fn reload_loop(addr: SocketAddr, plan: &mut DeltaPlan, count: usize) -> Vec<Reload> {
    let mut reloads: Vec<Reload> = Vec::new();
    let Ok(mut client) = Client::connect(addr) else {
        return reloads;
    };
    while reloads.len() < count {
        let delta = plan.next().expect("the delta plan is endless");
        let start = Instant::now();
        let mut busy_retries = 0;
        let response = loop {
            let response = client.call(&load::post("/v1/admin/reload", &delta.body));
            match &response {
                Ok(refused) if refused.status == 409 && busy_retries < BUSY_RETRIES => {
                    busy_retries += 1;
                    std::thread::sleep(BUSY_PAUSE);
                }
                _ => break response,
            }
        };
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let response = match response {
            Ok(response) => response,
            Err(error) => {
                reloads.push(Reload {
                    delta,
                    status: 0,
                    latency_ms,
                    version: 0,
                    full_rebuild: false,
                    total_batches: 0,
                    reused_batches: 0,
                    emitted_examples: 0,
                    swap_latency_us: 0,
                    digest: None,
                    error: Some(error.to_string()),
                    busy_retries,
                });
                break;
            }
        };
        let body = Json::parse(response.body_text()).unwrap_or(Json::Null);
        let full_rebuild = body.get("full_rebuild").and_then(Json::as_bool) == Some(true);
        let digest = if full_rebuild {
            client
                .call(&load::get("/v1/admin/version"))
                .ok()
                .and_then(|r| weights_digest(r.body_text()))
        } else {
            None
        };
        reloads.push(Reload {
            delta,
            status: response.status,
            latency_ms,
            version: json_u64(&body, "world_version"),
            full_rebuild,
            total_batches: json_u64(&body, "total_batches"),
            reused_batches: json_u64(&body, "reused_batches"),
            emitted_examples: json_u64(&body, "emitted_examples"),
            swap_latency_us: json_u64(&body, "swap_latency_us"),
            digest,
            error: None,
            busy_retries,
        });
    }
    reloads
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_phase(name: &str, stats: &PhaseStats) {
    let latency = stats.latency.map_or("n/a".to_owned(), |s| {
        format!(
            "p50 {:.3}ms p{:.1} {:.3}ms over {}",
            s.p50,
            s.tail_pm as f64 / 10.0,
            s.tail,
            s.count
        )
    });
    println!(
        "phase {name}: sent {} succeeded {} failed {}; latency from due {latency}; \
         lateness p50 {:.3}ms max {:.3}ms; drain {:.3}ms",
        stats.attempted,
        stats.attempted - stats.failed,
        stats.failed,
        stats.lateness_p50_ms,
        stats.lateness_max_ms,
        stats.drain_ms
    );
}

/// Run one workload's phases against a freshly set-up server.
pub fn drive(spec: Spec, seed: u64, seconds: f64, work: &Path) -> Result<(Run, Served), String> {
    let builtin = Thingpedia::builtin();
    let input_seed = seed ^ {
        let mut name = Digest::new();
        name.add(spec.name.as_bytes());
        name.value()
    };
    let fixed_count = ((spec.fixed_rate * seconds / 2.0) as usize).max(1000);
    let step_secs = seconds / 2.0 / SEARCH_STEPS as f64;

    // Inputs, generated before the set-up clock starts.
    let mut digest = Digest::new();
    digest.add(spec.name.as_bytes());
    let mut pool = UniquePool::new(input_seed);
    let mut draws = inputs::Rng::new(input_seed ^ 0x21bf);
    let zipf = Zipf::new(REPEAT_COMMANDS, ZIPF_EXPONENT);
    let commands: Vec<Utterance> = match spec.traffic {
        Traffic::Unique => {
            pool.ensure(&builtin, EVAL_UTTERANCES.max(UNIQUE_WARMUP + fixed_count));
            Vec::new()
        }
        Traffic::Repeat => {
            let training = DataPipeline::new(&inputs::initial_library(), world::pipeline_config(0))
                .build()
                .map_err(|e| format!("training-distribution commands: {e}"))?;
            inputs::repeat_commands(
                &training.synthesized.examples,
                REPEAT_CANDIDATES,
                input_seed,
            )
        }
    };
    let mut plan = DeltaPlan::new(input_seed);
    {
        for utterance in commands.iter().chain(&pool.items) {
            digest.add(utterance.text.as_bytes());
        }
        let mut preview = draws.clone();
        for _ in 0..fixed_count {
            digest.add(&(zipf.draw(&mut preview) as u64).to_le_bytes());
        }
        let mut preview = DeltaPlan::new(input_seed);
        for delta in preview.by_ref().take(16) {
            digest.add(delta.body.as_bytes());
        }
    }
    println!(
        "inputs: workload {} seed {seed} digest {:#018x}",
        spec.name,
        digest.value()
    );

    // Set up the serving world; the remaining set-ups run once the reads
    // and reloads are over.
    let mut setups = Vec::new();
    let set_up = |i: usize, setups: &mut Vec<SetupTimes>| -> Result<Served, String> {
        let world = world::set_up(&work.join(format!("world-{i}")), inputs::initial_library())
            .map_err(|e| format!("set-up {i}: {e}"))?;
        println!(
            "setup {i}: {:.3}s (bootstrap {:.1}ms, snapshot save {:.1}ms, load {:.1}ms, \
             bind {:.1}ms) on {}",
            world.times.total_s,
            world.times.bootstrap_ms,
            world.times.snapshot_save_ms,
            world.times.snapshot_load_ms,
            world.times.bind_ms,
            world.server.local_addr()
        );
        setups.push(world.times);
        Ok(world)
    };
    let served = set_up(0, &mut setups)?;
    let addr = served.server.local_addr();
    let arena_before = genie_templates::intern::shared().len();

    let mut utterances: Vec<Utterance> = match spec.traffic {
        Traffic::Unique => std::mem::take(&mut pool.items),
        Traffic::Repeat => {
            let requests: Vec<ParseRequest> = commands
                .iter()
                .map(|c| ParseRequest::new(c.text.as_str()))
                .collect();
            let answered = served.oracle.parse_batch(&requests);
            let kept: Vec<Utterance> = commands
                .into_iter()
                .zip(answered)
                .filter(|(_, answer)| answer.is_ok())
                .map(|(command, _)| command)
                .take(REPEAT_COMMANDS)
                .collect();
            if kept.len() < REPEAT_COMMANDS {
                return Err(format!(
                    "only {} of {REPEAT_CANDIDATES} training commands parse",
                    kept.len()
                ));
            }
            kept
        }
    };
    let mut next_unique = 0usize;
    let mut sent: Vec<Sent> = Vec::new();
    // Send `count` reads at `rate`: the phase's accounting, and where its
    // reads start in `sent`.
    let mut phase = |phase: Phase, count: usize, rate: f64, sent: &mut Vec<Sent>| {
        let items: Vec<usize> = match spec.traffic {
            Traffic::Unique => {
                if next_unique + count > utterances.len() {
                    pool.items = std::mem::take(&mut utterances);
                    pool.ensure(&builtin, next_unique + count);
                    utterances = std::mem::take(&mut pool.items);
                }
                next_unique += count;
                (next_unique - count..next_unique).collect()
            }
            Traffic::Repeat if phase == Phase::Warmup => (0..utterances.len()).collect(),
            Traffic::Repeat => (0..count).map(|_| zipf.draw(&mut draws)).collect(),
        };
        let wires: Vec<Vec<u8>> = items
            .iter()
            .map(|&i| parse_wire(&utterances[i].text))
            .collect();
        let dues = load::constant_rate(wires.len(), rate);
        let records = load::open_loop(addr, spec.read_conns, &wires, &dues);
        let stats = load::account(&records);
        let first = sent.len();
        sent.extend(items.into_iter().zip(records).map(|(item, record)| Sent {
            phase,
            item,
            record,
        }));
        (stats, first)
    };

    let warm = match spec.traffic {
        Traffic::Unique => UNIQUE_WARMUP,
        Traffic::Repeat => REPEAT_COMMANDS,
    };
    let (warm_stats, _) = phase(Phase::Warmup, warm, spec.fixed_rate, &mut sent);
    print_phase("warmup", &warm_stats);

    let (fixed, blocks, search, max_rps) = {
        // The fixed-rate reads run in blocks spread over the search, so a
        // slow stretch of the host skews one block, not the run's medians.
        let block = fixed_count.div_ceil(FIXED_BLOCKS);
        let mut blocks = vec![phase(Phase::Fixed, block, spec.fixed_rate, &mut sent).0];
        print_phase("fixed block 1", &blocks[0]);
        let mut achieved: Vec<(f64, f64)> = Vec::new();
        let search = search::search(spec.fixed_rate, SEARCH_STEPS, SEARCH_RESOLUTION, |rate| {
            if achieved.len() % STEPS_PER_BLOCK == STEPS_PER_BLOCK - 1
                && blocks.len() < FIXED_BLOCKS
            {
                let (stats, _) = phase(Phase::Fixed, block, spec.fixed_rate, &mut sent);
                print_phase(&format!("fixed block {}", blocks.len() + 1), &stats);
                blocks.push(stats);
            }
            let count = ((rate * step_secs) as usize).max(100);
            let (step, first) = phase(Phase::Search, count, rate, &mut sent);
            achieved.push((
                rate,
                load::achieved_rate(sent[first..].iter().map(|s| &s.record)),
            ));
            let later: Vec<f64> = sent[first + (sent.len() - first) / 2..]
                .iter()
                .map(|s| s.record.latency_ms())
                .collect();
            let passed = search::step_passes(
                &StepStats {
                    attempted: step.attempted,
                    failed: step.failed,
                    late_p50_ms: stats::median(&later),
                },
                spec.limit_ms,
            );
            print_phase(
                &format!(
                    "search {rate:.1}/s ({})",
                    if passed { "pass" } else { "fail" }
                ),
                &step,
            );
            passed
        });
        while blocks.len() < FIXED_BLOCKS {
            let (stats, _) = phase(Phase::Fixed, block, spec.fixed_rate, &mut sent);
            print_phase(&format!("fixed block {}", blocks.len() + 1), &stats);
            blocks.push(stats);
        }
        let fixed_records: Vec<Record> = sent
            .iter()
            .filter(|s| s.phase == Phase::Fixed)
            .map(|s| s.record.clone())
            .collect();
        let fixed = load::account(&fixed_records);
        print_phase("fixed", &fixed);
        let max_rps = achieved
            .iter()
            .find(|(rate, _)| *rate == search.max_rps)
            .map_or(0.0, |(_, achieved)| *achieved);
        (fixed, blocks, search, max_rps)
    };
    let engine = served.live.engine().stats();
    let cache_entries = served.live.engine().cached_responses();
    let intern_growth = genie_templates::intern::shared().len() - arena_before;
    let metrics_text = Client::connect(addr)
        .and_then(|mut c| c.call(&load::get("/metrics")))
        .map(|r| r.body_text().to_owned())
        .unwrap_or_default();
    let reloads = reload_loop(addr, &mut plan, RELOADS);
    let peak_rss_mb = peak_rss_mb();
    for i in 1..SETUPS {
        drop(set_up(i, &mut setups)?);
    }
    if spec.traffic == Traffic::Unique {
        utterances.truncate(next_unique.max(EVAL_UTTERANCES));
    }
    Ok((
        Run {
            spec,
            seed,
            utterances,
            sent,
            fixed,
            blocks,
            search,
            max_rps,
            reloads,
            setups,
            metrics_text,
            engine,
            cache_entries,
            intern_growth,
            peak_rss_mb,
        },
        served,
    ))
}

/// A counter from the `/metrics` text.
pub fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let (key, value) = line.split_once(' ')?;
            (key == name).then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0.0)
}

/// The oracle's verdicts and the accuracy of a run.
pub struct Checked {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    pub exact_match: f64,
    pub noparse_share: f64,
    pub replays: Vec<(usize, ColdBuild)>,
    pub final_build: ColdBuild,
}

/// The library after the first `upto` reloads of a run.
pub fn library_after(reloads: &[Reload], upto: usize) -> Thingpedia {
    let mut library = inputs::initial_library();
    for reload in &reloads[..upto] {
        inputs::apply_body(&mut library, &reload.delta.body);
    }
    library
}

/// Apply the correctness oracle to a run: byte identity of every read,
/// reload versions, full-rebuild and final digests, and the
/// workload-property self-checks.
pub fn check(run: &Run, served: &Served) -> Checked {
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0usize;

    // Oracle responses for every distinct utterance sent plus the
    // accuracy set, from the in-process engine loaded from the snapshot.
    let mut indices: Vec<usize> = run.sent.iter().map(|s| s.item).collect();
    let eval_count = match run.spec.traffic {
        Traffic::Unique => EVAL_UTTERANCES,
        Traffic::Repeat => run.utterances.len(),
    };
    indices.extend(0..eval_count.min(run.utterances.len()));
    indices.sort_unstable();
    indices.dedup();
    let requests: Vec<ParseRequest> = indices
        .iter()
        .map(|&i| ParseRequest::new(run.utterances[i].text.clone()))
        .collect();
    let results = served.oracle.parse_batch(&requests);
    let mut predictions: HashMap<usize, Vec<String>> = HashMap::new();
    let mut expected: HashMap<usize, (u16, String)> = HashMap::new();
    let mut noparse = 0usize;
    for (&index, result) in indices.iter().zip(&results) {
        let (status, _, body) = api::render_result(result);
        if matches!(result, Err(genie::Error::NoParse { .. })) {
            noparse += 1;
        }
        let top = result
            .as_ref()
            .map(|response| response.best().tokens.clone())
            .unwrap_or_default();
        predictions.insert(index, top);
        expected.insert(index, (status, body));
    }

    for sent in &run.sent {
        let Some(response) = sent
            .record
            .response
            .as_ref()
            .filter(|_| !sent.record.failed())
        else {
            failed += 1;
            continue;
        };
        let (status, body) = &expected[&sent.item];
        if response.status != *status || response.body() != body.as_bytes() {
            failed += 1;
            if problems.len() < 5 {
                problems.push(format!(
                    "read of `{}` answered {} {}",
                    run.utterances[sent.item].text,
                    response.status,
                    response.body_text()
                ));
            }
        }
    }

    // Program accuracy of the top candidate against gold.
    let library = served.oracle.library();
    let gold_pipeline = DataPipeline::new(&library, world::pipeline_config(0));
    let eval: Vec<usize> = (0..eval_count.min(run.utterances.len())).collect();
    let examples: Vec<genie::Example> = eval
        .iter()
        .map(|&i| run.utterances[i].example.clone())
        .collect();
    let gold: Vec<Vec<String>> = examples
        .iter()
        .map(|e| gold_pipeline.gold_tokens(e, NnOptions::default()))
        .collect();
    let predicted: Vec<Vec<String>> = eval.iter().map(|i| predictions[i].clone()).collect();
    let exact_match =
        genie::evaluate(library.as_ref(), &examples, &gold, &predicted).program_accuracy;

    // Reloads: every one accepted, version +1 each, full rebuilds exactly
    // for structural deltas, and each full rebuild's replay digest equals
    // what the server served.
    let mut replays: Vec<(usize, ColdBuild)> = Vec::new();
    for (i, reload) in run.reloads.iter().enumerate() {
        let want_version = i as u64 + 2;
        if reload.status != 200 || reload.version != want_version {
            failed += 1;
            problems.push(format!(
                "reload {i}: status {} version {} after {} busy retries (want 200, version \
                 {want_version}){}",
                reload.status,
                reload.version,
                reload.busy_retries,
                reload
                    .error
                    .as_deref()
                    .map_or(String::new(), |e| format!(": {e}"))
            ));
            continue;
        }
        if reload.full_rebuild != (reload.delta.kind == DeltaKind::Structural) {
            problems.push(format!(
                "reload {i}: full_rebuild {} for a {:?} delta",
                reload.full_rebuild, reload.delta.kind
            ));
        }
        if reload.full_rebuild {
            match world::cold_build(&library_after(&run.reloads, i + 1)) {
                Ok(build) => {
                    if Some(build.digest) != reload.digest {
                        failed += 1;
                        problems.push(format!(
                            "reload {i}: replay digest {:#018x} != served {:?}",
                            build.digest, reload.digest
                        ));
                    }
                    replays.push((i, build));
                }
                Err(e) => problems.push(format!("reload {i}: replay failed: {e}")),
            }
        }
    }
    // The final world equals a cold build at the final library.
    let last = run.reloads.len();
    let final_build = match replays.last().filter(|(i, _)| i + 1 == last) {
        Some((_, build)) => build.clone(),
        None => world::cold_build(&library_after(&run.reloads, last))
            .expect("a cold build of the final library"),
    };
    if final_build.digest != served.live.weights_digest() {
        failed += 1;
        problems.push(format!(
            "final digest {:#018x} != cold build {:#018x}",
            served.live.weights_digest(),
            final_build.digest
        ));
    }

    // Workload-property self-checks.
    let engine = &run.engine;
    let hit_share = engine.cache_hits as f64 / engine.requests.max(1) as f64;
    let distinct = {
        let mut items: Vec<usize> = run.sent.iter().map(|s| s.item).collect();
        items.sort_unstable();
        items.dedup();
        items.len() as f64 / run.sent.len().max(1) as f64
    };
    let full = run.reloads.iter().filter(|r| r.full_rebuild).count();
    let noparse_share = noparse as f64 / indices.len().max(1) as f64;
    println!(
        "self-check: cache hit share {hit_share:.4} ({} of {} engine requests); distinct \
         utterance share {distinct:.4}; noparse share {noparse_share:.4}; reloads {} \
         ({full} full, {} incremental)",
        engine.cache_hits,
        engine.requests,
        run.reloads.len(),
        run.reloads.len() - full
    );
    match run.spec.traffic {
        Traffic::Unique if engine.cache_hits > 0 => problems.push(format!(
            "{} got {} cache hits: it no longer bypasses the cache",
            run.spec.name, engine.cache_hits
        )),
        Traffic::Repeat if hit_share < MIN_REPEAT_HIT_SHARE => problems.push(format!(
            "{} hit the cache on only {hit_share:.3} of requests",
            run.spec.name
        )),
        _ => {}
    }
    if run.reloads.is_empty() {
        problems.push("no reload ran".to_owned());
    }
    Checked {
        attempted: run.sent.len() + run.reloads.len(),
        failed,
        problems,
        exact_match,
        noparse_share,
        replays,
        final_build,
    }
}

/// The median over the fixed-rate blocks of one of their latency figures.
pub fn block_median(run: &Run, value: fn(&stats::Summary) -> Option<f64>) -> Result<f64, String> {
    let values = run
        .blocks
        .iter()
        .map(|b| b.latency.as_ref().and_then(value))
        .collect::<Option<Vec<f64>>>()
        .ok_or("a fixed-rate block is too small for its percentiles")?;
    Ok(stats::median(&values))
}

/// The end-to-end metrics of a checked run.
pub fn end_to_end(run: &Run, checked: &Checked) -> Result<Vec<Metric>, String> {
    let latency = run
        .fixed
        .latency
        .ok_or("the fixed phase has no latency sample")?;
    if latency.tail_pm < 990 {
        return Err(format!(
            "the fixed phase's {} samples cannot support a p99",
            latency.count
        ));
    }
    let setup: Vec<f64> = run.setups.iter().map(|s| s.total_s).collect();
    let reload_ms: Vec<f64> = run.reloads.iter().map(|r| r.latency_ms).collect();
    println!(
        "max_rps search: {:?} -> {:.1}/s offered {:.1}/s (resolved {})",
        run.search.steps, run.search.max_rps, run.max_rps, run.search.resolved
    );
    println!(
        "reloads: {} latencies {:?} ms",
        reload_ms.len(),
        reload_ms
            .iter()
            .map(|v| (v * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!(
        "fixed phase: p50 {:.3}ms p75 {:.3}ms p90 {:.3}ms p99 {:.3}ms over {}",
        latency.p50,
        latency.p75.unwrap_or(f64::NAN),
        latency.p90.unwrap_or(f64::NAN),
        latency.tail,
        latency.count
    );
    Ok(vec![
        metric("setup_s", stats::median(&setup), "s"),
        metric("p50_ms", block_median(run, |s| Some(s.p50))?, "ms"),
        metric("max_rps", run.max_rps, "1/s"),
        metric("exact_match", checked.exact_match, "share"),
        metric("peak_rss_mb", run.peak_rss_mb, "MB"),
    ])
}
