//! Live hot-swap bench: boots a **live** `genie-server`
//! ([`GenieServer::bind_live`]), hammers `/v1/parse` with concurrent
//! keep-alive clients, and drives `POST /v1/admin/reload` skill deltas
//! through the socket while the load is running. Hard assertions (the
//! process exits non-zero on any):
//!
//! * **zero dropped or errored requests** across all swaps — every parse
//!   sent during a reload gets a typed 2xx/422 answer, never a 5xx, a
//!   quota kick, or a closed socket;
//! * the first swap (class add → pool length change) reports a **full
//!   rebuild**, every later content-only swap reports **reused batches**;
//! * after the last swap, socket responses are **byte-identical** to a
//!   cold engine bootstrapped from scratch at the final library;
//! * `/metrics` and `GET /v1/admin/version` report the new
//!   `world_version` and the exact swap count.
//!
//! The report (`BENCH_live.json`) records steady-state p50/p99 alongside
//! p99 *during* swaps, so swap-induced tail latency is a tracked
//! trajectory, and reload latency itself (synthesis + retrain + swap).
//!
//! Usage:
//!   live_swap [--swaps N] [--clients N] [--requests N] [--out BENCH_live.json]
//!
//! `GENIE_BENCH_SMOKE=1` shrinks the workload to CI-smoke size.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use genie::engine::{GenieEngine, ParseRequest};
use genie::live::LiveWorld;
use genie::paraphrase::ParaphraseConfig;
use genie::pipeline::PipelineConfig;
use genie_bench::{
    flag_value, json_object, metric, parse_body, quantile, request, training_commands,
    MAX_RESPONSE_BYTES,
};
use genie_server::json::Json;
use genie_server::{api, http, GenieServer, ServerConfig};
use genie_templates::GeneratorConfig;
use luinet::ModelConfig;
use thingpedia::{PhraseCategory, PrimitiveTemplate, Thingpedia};

/// The class every swap upserts. The first upsert adds it (a pool length
/// change, forcing the full-rebuild path); later upserts only re-word its
/// template (content-only, exercising incremental re-synthesis).
const BENCH_CLASS: &str =
    "class @com.bench.lights { action set_power(in req power : Enum(on, off)); }";

fn flag_str(args: &[String], flag: &str) -> Option<String> {
    let position = args.iter().position(|a| a == flag)?;
    args.get(position + 1).cloned()
}

/// The template utterance swap `i` installs.
fn swap_utterance(swap: usize) -> String {
    format!("swap the bench lights $power pronto v{swap}")
}

/// The wire body of swap `i`'s `POST /v1/admin/reload`. `wait: true`: this
/// bench times the full rebuild and reads the swap report synchronously,
/// so it opts out of the default 202-accepted background handoff.
fn reload_body(swap: usize) -> String {
    format!(
        "{{\"op\": \"upsert\", \"class\": {}, \"templates\": \
         [{{\"category\": \"vp\", \"function\": \"set_power\", \"utterance\": {}}}], \
         \"mode\": \"full\", \"wait\": true}}",
        genie_server::json::escape(BENCH_CLASS),
        genie_server::json::escape(&swap_utterance(swap)),
    )
}

/// The library swap `i` leaves behind, applied in-process — the oracle the
/// cold reference engine is bootstrapped from.
fn patched_library(swap: usize) -> Thingpedia {
    let class = thingtalk::syntax::parse_class(BENCH_CLASS).expect("the bench class parses");
    let template = PrimitiveTemplate::new(
        &class.name,
        "set_power",
        PhraseCategory::VerbPhrase,
        swap_utterance(swap),
    );
    let mut library = Thingpedia::builtin();
    library.upsert_class(class, vec![template]);
    library
}

fn pipeline_config(target_per_rule: usize, paraphrase_sample: usize) -> PipelineConfig {
    PipelineConfig::builder()
        .synthesis(
            GeneratorConfig::builder()
                .target_per_rule(target_per_rule)
                .max_depth(4)
                .instantiations_per_template(1)
                .seed(7)
                .threads(1)
                .shards(4)
                .quiet(true)
                .build()
                .expect("valid synthesis config"),
        )
        .paraphrase(
            ParaphraseConfig::builder()
                .per_sentence(1)
                .error_rate(0.0)
                .seed(7)
                .build()
                .expect("valid paraphrase config"),
        )
        .paraphrase_sample(paraphrase_sample)
        .parameter_expansion(false)
        .seed(7)
        .build()
        .expect("valid pipeline config")
}

fn model_config() -> ModelConfig {
    ModelConfig {
        epochs: 4,
        seed: 7,
        threads: 1,
        ..ModelConfig::default()
    }
}

/// Utterances from the base library's training distribution — classes the
/// bench deltas never touch, so they must keep parsing across every swap.
fn workload(requests: usize, config: &PipelineConfig) -> Vec<ParseRequest> {
    let commands = training_commands(config, 48);
    (0..requests)
        .map(|i| ParseRequest::new(commands[i % commands.len()].clone()))
        .collect()
}

fn sorted(mut micros: Vec<f64>) -> Vec<f64> {
    micros.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    micros
}

/// One byte-identity client: serve its jobs over a keep-alive connection,
/// asserting each socket response equals the in-process rendering.
fn run_identity_client(
    addr: SocketAddr,
    jobs: Vec<(String, u16, String)>, // (utterance, expected status, expected body)
) -> Vec<f64> {
    let stream = TcpStream::connect(addr).expect("connect to the bench server");
    let mut writer = stream.try_clone().expect("clone client stream");
    let mut reader = BufReader::new(stream);
    let mut micros = Vec::with_capacity(jobs.len());
    for (utterance, expected_status, expected_body) in jobs {
        let body = parse_body(&utterance);
        let start = Instant::now();
        http::write_request(&mut writer, "POST", "/v1/parse", body.as_bytes(), true)
            .expect("write request");
        let response = http::read_response(&mut reader, MAX_RESPONSE_BYTES).expect("read response");
        micros.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(
            (response.status, &*response.text()),
            (expected_status, expected_body.as_str()),
            "socket response for `{utterance}` drifted from the in-process rendering"
        );
    }
    micros
}

/// One swap-phase client: cycle the workload until told to stop. Any
/// answer that is not a typed parse outcome (2xx or 422), or a dead
/// socket, counts as a dropped/errored request — the gate requires zero.
fn run_swap_client(
    addr: SocketAddr,
    utterances: Vec<String>,
    stop: Arc<AtomicBool>,
    errors: Arc<AtomicU64>,
) -> Vec<f64> {
    let stream = TcpStream::connect(addr).expect("connect to the bench server");
    let mut writer = stream.try_clone().expect("clone client stream");
    let mut reader = BufReader::new(stream);
    let mut micros = Vec::new();
    let mut next = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let body = parse_body(&utterances[next % utterances.len()]);
        next += 1;
        let start = Instant::now();
        if http::write_request(&mut writer, "POST", "/v1/parse", body.as_bytes(), true).is_err() {
            errors.fetch_add(1, Ordering::Relaxed);
            break;
        }
        match http::read_response(&mut reader, MAX_RESPONSE_BYTES) {
            Ok(response) if response.status == 422 || (200..300).contains(&response.status) => {
                micros.push(start.elapsed().as_secs_f64() * 1e6);
            }
            Ok(response) => {
                eprintln!(
                    "live-swap: request errored during swap: {} {}",
                    response.status,
                    response.text()
                );
                errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                eprintln!("live-swap: connection dropped during swap");
                errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    micros
}

/// Expected `(utterance, status, body)` triples rendered in-process
/// through the server's own rendering functions — the byte-identity
/// oracle for socket responses against `engine`.
fn expected_responses(
    engine: &GenieEngine,
    workload: &[ParseRequest],
) -> Vec<(String, u16, String)> {
    let expected = workload
        .iter()
        .zip(engine.parse_batch(workload))
        .map(|(request, result)| {
            let (status, _, body) = api::render_result(&result);
            (request.utterance.clone(), status, body)
        })
        .collect();
    engine.clear_cache();
    expected
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = std::env::var("GENIE_BENCH_SMOKE").is_ok();
    let target_per_rule = if smoke { 10 } else { 15 };
    let paraphrase_sample = if smoke { 20 } else { 40 };
    let swaps = flag_value(&args, "--swaps")
        .unwrap_or(if smoke { 3 } else { 5 })
        .max(2);
    let clients = flag_value(&args, "--clients").unwrap_or(4).max(1);
    let requests = flag_value(&args, "--requests").unwrap_or(if smoke { 120 } else { 400 });
    let out_path = flag_str(&args, "--out").unwrap_or_else(|| "BENCH_live.json".to_owned());

    let pipeline = pipeline_config(target_per_rule, paraphrase_sample);
    let model = model_config();
    let workload = workload(requests, &pipeline);

    let boot_start = Instant::now();
    let live = Arc::new(
        LiveWorld::bootstrap(Thingpedia::builtin(), pipeline, model.clone())
            .expect("bootstrap the live world"),
    );
    let bootstrap_secs = boot_start.elapsed().as_secs_f64();

    // Steady-state oracle before anything swaps: socket responses must be
    // byte-identical to the in-process rendering at world version 1.
    let steady_expected = expected_responses(live.engine(), &workload);

    let server = GenieServer::bind_live(
        live,
        ServerConfig::builder()
            .worker_threads((clients + 2).min(32))
            .build()
            .expect("valid server config"),
    )
    .expect("bind the live bench server");
    let addr = server.local_addr();
    println!("live-swap: listening on {addr} (bootstrap {bootstrap_secs:.3}s, world version 1)");

    // --- Steady state: two passes (warm, then measured) of byte-identity
    // clients, no swap in flight.
    let mut steady_micros: Vec<f64> = Vec::new();
    let mut steady_secs = 0.0f64;
    for pass in 0..2 {
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let jobs: Vec<(String, u16, String)> = steady_expected
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % clients == client)
                    .map(|(_, job)| job.clone())
                    .collect();
                std::thread::spawn(move || run_identity_client(addr, jobs))
            })
            .collect();
        let mut micros: Vec<f64> = Vec::with_capacity(steady_expected.len());
        for handle in handles {
            micros.extend(handle.join().expect("steady client thread"));
        }
        if pass == 1 {
            steady_micros = micros;
            steady_secs = start.elapsed().as_secs_f64();
        }
    }
    let steady_micros = sorted(steady_micros);
    let steady_p50 = quantile(&steady_micros, 0.50);
    let steady_p99 = quantile(&steady_micros, 0.99);
    let steady_mean = steady_micros.iter().sum::<f64>() / steady_micros.len().max(1) as f64;
    let steady_rate = steady_expected.len() as f64 / steady_secs;
    println!(
        "live-swap: steady state p50 {steady_p50:.0}us p99 {steady_p99:.0}us \
         ({steady_rate:.0} req/s, byte-identical to in-process)"
    );

    // --- Swap phase: clients hammer continuously; the main thread drives
    // every reload through the socket, back to back, so client latencies
    // in this phase are latencies *during* a swap.
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicU64::new(0));
    let swap_handles: Vec<_> = (0..clients)
        .map(|client| {
            let utterances: Vec<String> = steady_expected
                .iter()
                .enumerate()
                .filter(|(i, _)| i % clients == client)
                .map(|(_, (utterance, _, _))| utterance.clone())
                .collect();
            let stop = stop.clone();
            let errors = errors.clone();
            std::thread::spawn(move || run_swap_client(addr, utterances, stop, errors))
        })
        .collect();

    let mut full_rebuild_swaps = 0usize;
    let mut incremental_swaps = 0usize;
    let mut last_reused_batches = 0u64;
    let mut last_changed_pool_entries = 0u64;
    let mut reload_ms: Vec<f64> = Vec::new();
    for swap in 1..=swaps {
        let start = Instant::now();
        let response =
            request(addr, "POST", "/v1/admin/reload", &reload_body(swap)).expect("reload response");
        reload_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let body = response.text();
        assert_eq!(response.status, 200, "reload {swap} failed: {body}");
        let report = Json::parse(&body).expect("the reload report is JSON");
        let field = |name: &str| {
            report
                .get(name)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("reload report lacks `{name}`: {body}"))
        };
        assert_eq!(
            field("world_version") as u64,
            1 + swap as u64,
            "reload {swap} swapped the wrong version: {body}"
        );
        let full_rebuild = report.get("full_rebuild").and_then(Json::as_bool) == Some(true);
        if swap == 1 {
            // The class add changes a pool length: full rebuild, by design.
            assert!(
                full_rebuild,
                "the class-adding swap must report a full rebuild: {body}"
            );
        } else {
            assert!(
                !full_rebuild && field("reused_batches") > 0.0,
                "content-only swap {swap} must reuse memoized batches: {body}"
            );
        }
        if full_rebuild {
            full_rebuild_swaps += 1;
        } else {
            incremental_swaps += 1;
        }
        last_reused_batches = field("reused_batches") as u64;
        last_changed_pool_entries = field("changed_pool_entries") as u64;
        println!(
            "live-swap: swap {swap}/{swaps} -> version {} in {:.0}ms \
             (full_rebuild {full_rebuild}, reused {last_reused_batches})",
            1 + swap,
            reload_ms[swap - 1],
        );
    }
    stop.store(true, Ordering::Relaxed);
    let mut swap_micros: Vec<f64> = Vec::new();
    for handle in swap_handles {
        swap_micros.extend(handle.join().expect("swap client thread"));
    }
    let swap_requests = swap_micros.len();
    let swap_micros = sorted(swap_micros);
    let swap_p50 = quantile(&swap_micros, 0.50);
    let swap_p99 = quantile(&swap_micros, 0.99);
    let request_errors = errors.load(Ordering::Relaxed);
    assert_eq!(
        request_errors, 0,
        "requests dropped or errored during the swap phase"
    );
    let mean_reload_ms = reload_ms.iter().sum::<f64>() / reload_ms.len() as f64;
    println!(
        "live-swap: {swap_requests} requests served during {swaps} swaps with zero errors; \
         during-swap p50 {swap_p50:.0}us p99 {swap_p99:.0}us; mean reload {mean_reload_ms:.0}ms"
    );

    // --- Post-swap: byte identity against a cold engine bootstrapped from
    // scratch at the final library — the acceptance criterion that the
    // incremental path never drifts from a full rebuild.
    let cold = LiveWorld::bootstrap(patched_library(swaps), pipeline, model)
        .expect("bootstrap the cold reference world");
    let mut post_workload = workload;
    // Exercise the swapped class itself, not just the untouched ones.
    post_workload.push(ParseRequest::new(
        swap_utterance(swaps).replace("$power", "on"),
    ));
    let post_expected = expected_responses(cold.engine(), &post_workload);
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let jobs: Vec<(String, u16, String)> = post_expected
                .iter()
                .enumerate()
                .filter(|(i, _)| i % clients == client)
                .map(|(_, job)| job.clone())
                .collect();
            std::thread::spawn(move || run_identity_client(addr, jobs))
        })
        .collect();
    for handle in handles {
        handle.join().expect("post-swap client thread");
    }
    println!("live-swap: post-swap responses byte-identical to a cold engine at the final library");

    // --- The serving metadata must agree on what just happened.
    let version_body = request(addr, "GET", "/v1/admin/version", "")
        .expect("version response")
        .text()
        .into_owned();
    let reported_version = Json::parse(&version_body)
        .ok()
        .and_then(|version| version.get("world_version")?.as_f64())
        .expect("version field") as u64;
    assert_eq!(
        reported_version,
        1 + swaps as u64,
        "GET /v1/admin/version disagrees: {version_body}"
    );
    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "world_version"), 1 + swaps as u64);
    assert_eq!(metric(&metrics, "world_swaps_total"), swaps as u64);
    assert_eq!(metric(&metrics, "server_reload_ok_total"), swaps as u64);
    assert_eq!(metric(&metrics, "server_reload_failed_total"), 0);
    assert_eq!(metric(&metrics, "server_http_5xx_total"), 0);
    println!("live-swap: /metrics and /v1/admin/version agree on world version {reported_version}");

    let config = json_object(&[
        ("swaps", swaps.to_string()),
        ("clients", clients.to_string()),
        ("requests", requests.to_string()),
        ("target_per_rule", target_per_rule.to_string()),
        ("paraphrase_sample", paraphrase_sample.to_string()),
        ("epochs", 4.to_string()),
    ]);
    let steady = json_object(&[
        ("p50_us", format!("{steady_p50:.1}")),
        ("p99_us", format!("{steady_p99:.1}")),
        ("mean_us", format!("{steady_mean:.1}")),
        ("requests_per_sec", format!("{steady_rate:.1}")),
    ]);
    let swap = json_object(&[
        ("requests_completed", swap_requests.to_string()),
        ("request_errors", request_errors.to_string()),
        ("p50_during_swap_us", format!("{swap_p50:.1}")),
        ("p99_during_swap_us", format!("{swap_p99:.1}")),
        ("mean_reload_ms", format!("{mean_reload_ms:.1}")),
        ("full_rebuild_swaps", full_rebuild_swaps.to_string()),
        ("incremental_swaps", incremental_swaps.to_string()),
        ("last_reused_batches", last_reused_batches.to_string()),
        (
            "last_changed_pool_entries",
            last_changed_pool_entries.to_string(),
        ),
    ]);
    let post_swap = json_object(&[
        ("world_version", (1 + swaps).to_string()),
        ("byte_identical", "true".to_owned()),
        ("metrics_consistent", "true".to_owned()),
    ]);
    let report = json_object(&[
        ("bench", "\"live_swap\"".to_owned()),
        ("smoke", smoke.to_string()),
        ("bootstrap_secs", format!("{bootstrap_secs:.3}")),
        ("config", config),
        ("steady", steady),
        ("swap", swap),
        ("post_swap", post_swap),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write the live report");
    println!("wrote {out_path}");
}
