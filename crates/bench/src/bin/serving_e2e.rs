//! End-to-end socket serving bench: boots a real `genie-server` on
//! loopback from a **snapshot-loaded** engine (the production cold-start
//! path), hammers it with concurrent HTTP clients, and records socket-level
//! p50/p99 latency and req/s alongside hard correctness assertions:
//!
//! * every socket response is **byte-identical** to rendering the same
//!   request in-process through `genie_server::api::render_result`;
//! * malformed probes (garbage request line, missing `Content-Length`,
//!   oversized body, broken JSON, unknown route) get **typed 4xx** answers;
//! * every single-request parse flows through the coalescer;
//! * a live world under the same client load answers every request with a
//!   typed outcome while admin reloads swap worlds underneath it — the
//!   p99 *during* those swaps is reported alongside the steady-state p99,
//!   so swap-induced tail latency is tracked in the trajectory rather
//!   than asserted.
//!
//! The process exits non-zero if any assertion fails, so the CI job fails
//! even before the regression gate reads the numbers.
//!
//! Usage:
//!   serving_e2e [--requests N] [--clients N] [--passes N]
//!               [--base BENCH_serving.json] [--out BENCH_serving.json]
//!
//! With `--base`, the socket section is spliced into an existing
//! `BENCH_serving.json` written by the in-process serving bench (the CI
//! flow); without it, a standalone report is written. `GENIE_BENCH_SMOKE=1`
//! shrinks the workload to CI-smoke size.

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
    flag_value, json_object, metric, parse_body, quantile, request, send, training_commands,
    MAX_RESPONSE_BYTES,
};
use genie_server::{api, http, GenieServer, ServerConfig};
use genie_templates::GeneratorConfig;
use luinet::ModelConfig;

fn flag_str(args: &[String], flag: &str) -> Option<String> {
    let position = args.iter().position(|a| a == flag)?;
    args.get(position + 1).cloned()
}

/// Train the bench engine (same seeds/shape as the in-process serving
/// bench, so the two halves of `BENCH_serving.json` describe one model).
fn train_engine(target_per_rule: usize) -> GenieEngine {
    let pipeline = PipelineConfig::builder()
        .synthesis(
            GeneratorConfig::builder()
                .target_per_rule(target_per_rule)
                .instantiations_per_template(1)
                .seed(7)
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
        .paraphrase_sample(120)
        .seed(7)
        .build()
        .expect("valid pipeline config");
    GenieEngine::builder()
        .train(
            pipeline,
            ModelConfig {
                epochs: 3,
                seed: 7,
                ..ModelConfig::default()
            },
        )
        .expect("training the bench engine cannot fail")
        .build()
        .expect("the bench engine builds")
}

/// Production-shaped workload: utterances from the training distribution,
/// salted with empty utterances the engine must reject deterministically.
fn workload(requests: usize, target_per_rule: usize) -> Vec<ParseRequest> {
    let config = PipelineConfig::builder()
        .synthesis(
            GeneratorConfig::builder()
                .target_per_rule(target_per_rule)
                .instantiations_per_template(1)
                .seed(7)
                .quiet(true)
                .build()
                .expect("valid synthesis config"),
        )
        .parameter_expansion(false)
        .paraphrase_sample(0)
        .seed(7)
        .build()
        .expect("valid pipeline config");
    let commands = training_commands(&config, 64);
    (0..requests)
        .map(|i| {
            if i % 16 == 15 {
                ParseRequest::new("")
            } else {
                ParseRequest::new(commands[i % commands.len()].clone())
            }
        })
        .collect()
}

/// One client thread: serve its share of the workload over a keep-alive
/// connection, asserting byte identity against the in-process rendering.
fn run_client(
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

fn assert_typed_4xx(addr: SocketAddr) {
    let post = |body: &str| {
        let mut wire = Vec::new();
        http::write_request(&mut wire, "POST", "/v1/parse", body.as_bytes(), false)
            .expect("write to a buffer");
        wire
    };
    let cases: Vec<(&str, Vec<u8>, u16, &str)> = vec![
        (
            "garbage request line",
            b"\x01\x02\x03 garbage\r\n\r\n".to_vec(),
            400,
            "bad_request",
        ),
        (
            "missing Content-Length",
            b"POST /v1/parse HTTP/1.1\r\nHost: b\r\n\r\n".to_vec(),
            411,
            "length_required",
        ),
        (
            "oversized declared body",
            b"POST /v1/parse HTTP/1.1\r\nHost: b\r\nContent-Length: 99999999\r\n\r\n".to_vec(),
            413,
            "payload_too_large",
        ),
        ("broken JSON", post("{not json"), 400, "bad_request"),
        (
            "wrong field type",
            post("{\"utterance\": 7}"),
            400,
            "bad_request",
        ),
        (
            "unknown route",
            b"GET /v1/nope HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n".to_vec(),
            404,
            "not_found",
        ),
    ];
    for (name, wire, expected_status, expected_code) in cases {
        let response = send(addr, &wire)
            .unwrap_or_else(|error| panic!("no response to malformed probe `{name}`: {error}"));
        let body = response.text();
        assert_eq!(
            response.status, expected_status,
            "probe `{name}` got status {} body {body}",
            response.status
        );
        assert!(
            body.contains(expected_code),
            "probe `{name}` body lacks code `{expected_code}`: {body}"
        );
    }
    println!("serving-e2e: all malformed probes answered with typed 4xx");
}

/// Tail latency *during* a world swap: boot a small live world under the
/// same client pressure, run two admin reloads back to back (a pool-shape
/// change forcing a full rebuild, then a content-only incremental one),
/// and record the p99 of parse requests answered while the reloads were
/// in flight. Every request must still get a typed outcome (2xx/422) —
/// drops or 5xx abort the bench — but the latency itself is reported, not
/// gated: swap-induced tail latency is a tracked trajectory.
fn swap_tail_latency(clients: usize, utterances: &[String]) -> (f64, usize, usize) {
    let pipeline = PipelineConfig::builder()
        .synthesis(
            GeneratorConfig::builder()
                .target_per_rule(10)
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
        .paraphrase_sample(20)
        .parameter_expansion(false)
        .seed(7)
        .build()
        .expect("valid pipeline config");
    let live = Arc::new(
        LiveWorld::bootstrap(
            thingpedia::Thingpedia::builtin(),
            pipeline,
            ModelConfig {
                epochs: 4,
                seed: 7,
                threads: 1,
                ..ModelConfig::default()
            },
        )
        .expect("bootstrap the live world"),
    );
    let mut server = GenieServer::bind_live(
        live,
        ServerConfig::builder()
            .worker_threads((clients + 2).min(32))
            .build()
            .expect("valid server config"),
    )
    .expect("bind the live server");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let jobs: Vec<String> = utterances
                .iter()
                .enumerate()
                .filter(|(i, utterance)| i % clients == client && !utterance.is_empty())
                .map(|(_, utterance)| utterance.clone())
                .collect();
            let stop = stop.clone();
            let errors = errors.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect to the live server");
                let mut writer = stream.try_clone().expect("clone client stream");
                let mut reader = BufReader::new(stream);
                let mut micros = Vec::new();
                let mut next = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let body = parse_body(&jobs[next % jobs.len()]);
                    next += 1;
                    let start = Instant::now();
                    if http::write_request(&mut writer, "POST", "/v1/parse", body.as_bytes(), true)
                        .is_err()
                    {
                        errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    match http::read_response(&mut reader, MAX_RESPONSE_BYTES) {
                        Ok(r) if r.status == 422 || (200..300).contains(&r.status) => {
                            micros.push(start.elapsed().as_secs_f64() * 1e6);
                        }
                        Ok(r) => {
                            eprintln!("serving-e2e: {} during swap: {}", r.status, r.text());
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            eprintln!("serving-e2e: connection dropped during swap");
                            errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                micros
            })
        })
        .collect();

    // Two back-to-back reloads: adding the class changes a pool length
    // (full rebuild); re-wording its template is the incremental path.
    let class = "class @com.bench.lights { action set_power(in req power : Enum(on, off)); }";
    let reloads = 2usize;
    for swap in 1..=reloads {
        // `wait: true`: the bench wants the synchronous swap report, not
        // the default 202-accepted handoff to the background builder.
        let body = format!(
            "{{\"op\": \"upsert\", \"class\": {}, \"templates\": \
             [{{\"category\": \"vp\", \"function\": \"set_power\", \
             \"utterance\": {}}}], \"mode\": \"full\", \"wait\": true}}",
            genie_server::json::escape(class),
            genie_server::json::escape(&format!("swap the bench lights $power v{swap}")),
        );
        let response = request(addr, "POST", "/v1/admin/reload", &body).expect("reload response");
        assert_eq!(
            response.status,
            200,
            "live reload {swap} failed: {}",
            response.text()
        );
    }
    stop.store(true, Ordering::Relaxed);
    let mut micros: Vec<f64> = Vec::new();
    for handle in handles {
        micros.extend(handle.join().expect("swap client thread"));
    }
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "requests dropped or errored while worlds swapped"
    );
    micros.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p99 = quantile(&micros, 0.99);
    server.shutdown();
    (p99, micros.len(), reloads)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = std::env::var("GENIE_BENCH_SMOKE").is_ok();
    let target_per_rule = if smoke { 15 } else { 60 };
    let requests = flag_value(&args, "--requests").unwrap_or(if smoke { 80 } else { 400 });
    let clients = flag_value(&args, "--clients").unwrap_or(4).max(1);
    let passes = flag_value(&args, "--passes").unwrap_or(2).max(1);
    let base = flag_str(&args, "--base");
    let out_path = flag_str(&args, "--out")
        .or_else(|| base.clone())
        .unwrap_or_else(|| "BENCH_serving.json".to_owned());

    // Train once, snapshot, and serve from the snapshot — the bench
    // measures the cold-start path replicas actually take.
    let trained = train_engine(target_per_rule);
    let snapshot_path =
        std::env::temp_dir().join(format!("genie-serving-e2e-{}.snapshot", std::process::id()));
    luinet::snapshot::save(&trained.model(), &snapshot_path).expect("save snapshot");
    drop(trained);
    let load_start = Instant::now();
    let engine = GenieEngine::builder()
        .model_from_snapshot(&snapshot_path)
        .expect("load snapshot")
        .build()
        .expect("the snapshot engine builds");
    let snapshot_load_secs = load_start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&snapshot_path);

    let workload = workload(requests, target_per_rule);

    // In-process reference through the server's own rendering functions:
    // this is the byte-identity oracle.
    let expected: Vec<(String, u16, String)> = workload
        .iter()
        .zip(engine.parse_batch(&workload))
        .map(|(request, result)| {
            let (status, _, body) = api::render_result(&result);
            (request.utterance.clone(), status, body)
        })
        .collect();
    engine.clear_cache();

    let server = GenieServer::bind(
        engine,
        ServerConfig::builder()
            .worker_threads(clients.min(16))
            .build()
            .expect("valid server config"),
    )
    .expect("bind the bench server");
    let addr = server.local_addr();
    println!("serving-e2e: listening on {addr} (snapshot load {snapshot_load_secs:.3}s)");

    assert_typed_4xx(addr);

    // Concurrent load: each pass splits the workload round-robin across
    // keep-alive client connections. The first pass warms the response
    // cache; the last pass is the measured steady state.
    let mut measured_micros: Vec<f64> = Vec::new();
    let mut measured_secs = 0.0f64;
    for pass in 0..passes {
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let jobs: Vec<(String, u16, String)> = expected
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % clients == client)
                    .map(|(_, job)| job.clone())
                    .collect();
                std::thread::spawn(move || run_client(addr, jobs))
            })
            .collect();
        let mut micros: Vec<f64> = Vec::with_capacity(expected.len());
        for handle in handles {
            micros.extend(handle.join().expect("client thread"));
        }
        let secs = start.elapsed().as_secs_f64();
        if pass + 1 == passes {
            measured_micros = micros;
            measured_secs = secs;
        }
    }
    measured_micros.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p50 = quantile(&measured_micros, 0.50);
    let p99 = quantile(&measured_micros, 0.99);
    let mean = measured_micros.iter().sum::<f64>() / measured_micros.len().max(1) as f64;
    let rate = expected.len() as f64 / measured_secs;
    println!(
        "serving-e2e: {} requests x {passes} passes over {clients} clients; \
         socket p50 {p50:.0}us p99 {p99:.0}us mean {mean:.0}us; {rate:.0} req/s \
         (byte-identical to in-process)",
        expected.len(),
    );

    let metrics = server.metrics_text();
    let coalesced = metric(&metrics, "server_coalesced_requests_total");
    assert_eq!(
        coalesced,
        (passes * expected.len()) as u64,
        "every single-request parse must flow through the coalescer"
    );
    let batches = metric(&metrics, "server_coalesce_batches_total");
    let max_batch = metric(&metrics, "server_coalesce_max_batch");
    println!(
        "serving-e2e: {coalesced} requests coalesced into {batches} micro-batches \
         (largest {max_batch})"
    );

    let swap_utterances: Vec<String> = expected.iter().map(|(u, _, _)| u.clone()).collect();
    let (swap_p99, swap_requests, swap_reloads) = swap_tail_latency(clients, &swap_utterances);
    println!(
        "serving-e2e: p99 during swap {swap_p99:.0}us over {swap_requests} requests \
         across {swap_reloads} reloads (steady-state p99 {p99:.0}us, zero errors)"
    );

    let socket = json_object(&[
        ("clients", clients.to_string()),
        ("requests", expected.len().to_string()),
        ("passes", passes.to_string()),
        ("snapshot_load_secs", format!("{snapshot_load_secs:.6}")),
        ("p50_us", format!("{p50:.1}")),
        ("p99_us", format!("{p99:.1}")),
        ("mean_us", format!("{mean:.1}")),
        ("requests_per_sec", format!("{rate:.1}")),
        ("coalesce_batches", batches.to_string()),
        ("coalesce_max_batch", max_batch.to_string()),
        ("p99_during_swap_us", format!("{swap_p99:.1}")),
        ("swap_requests", swap_requests.to_string()),
        ("swap_reloads", swap_reloads.to_string()),
        ("swap_request_errors", "0".to_owned()),
        ("byte_identical", "true".to_owned()),
        ("malformed_probes_typed", "true".to_owned()),
    ]);

    // Splice the socket section into the in-process report when given one
    // (the CI flow: `--bench serving` writes the base, this bin completes
    // it); standalone otherwise.
    let report = match base.as_deref().map(std::fs::read_to_string) {
        Some(Ok(existing)) => {
            let trimmed = existing.trim_end().trim_end_matches('}').trim_end();
            let trimmed = trimmed.strip_suffix(',').unwrap_or(trimmed);
            format!("{trimmed}, \"socket\": {socket}}}")
        }
        Some(Err(error)) => {
            eprintln!(
                "serving-e2e: cannot read --base {}: {error}",
                base.as_deref().unwrap_or_default()
            );
            std::process::exit(1);
        }
        None => json_object(&[
            ("bench", "\"serving_e2e\"".to_owned()),
            ("smoke", smoke.to_string()),
            ("socket", socket),
        ]),
    };
    std::fs::write(&out_path, format!("{report}\n")).expect("write the serving report");
    println!("wrote {out_path}");
}
