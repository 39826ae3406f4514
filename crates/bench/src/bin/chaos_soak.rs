//! Chaos soak: boots a **live** `genie-server`, arms the deterministic
//! failpoint registry (`genie_nlp::failpoint`) with a seeded fault plan,
//! and hammers the socket with concurrent keep-alive clients while faults
//! fire inside the acceptors, the request handlers, the coalescer
//! dispatcher, and the reload builder. Hard assertions (the process exits
//! non-zero on any):
//!
//! * **every response is valid** under the fault model — byte-identical to
//!   the in-process rendering, a typed 4xx/5xx with a known error code
//!   (`injected_fault`, `internal_panic`, `batch_crashed`, `overloaded`,
//!   `deadline_exceeded`, …), or a cleanly dropped connection (reconnect
//!   and carry on) — never a malformed body, a silent wrong answer, or a
//!   hang;
//! * **zero hung connections**: no read ever times out, in any phase;
//! * reloads driven through the fault storm either swap (version bumps by
//!   one) or fail typed (version unchanged, old world still serving):
//!   **the world version is monotonic** throughout;
//! * after disarming, a full byte-identity pass against the then-current
//!   world must be 100% clean — **the server recovers to steady state**;
//!   injected faults never leave residue.
//!
//! The fault schedule is a pure function of `(seed, site, hit-index)`:
//! `BENCH_robustness.json` records `fault_schedule_digest` over a fixed
//! horizon, and the CI gate pins it, so every soak run is byte-replayable
//! from its seed.
//!
//! Usage:
//!   chaos_soak [--seed N] [--clients N] [--requests N] [--swaps N] [--out BENCH_robustness.json]
//!
//! `GENIE_BENCH_SMOKE=1` shrinks the workload to CI-smoke size.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie::engine::{GenieEngine, ParseRequest};
use genie::live::LiveWorld;
use genie::paraphrase::ParaphraseConfig;
use genie::pipeline::PipelineConfig;
use genie_bench::{
    flag_value, json_object, metric, parse_body, training_commands, MAX_RESPONSE_BYTES,
};
use genie_nlp::failpoint::{self, FaultPlan, SiteSpec};
use genie_server::http::{self, HttpError, Response};
use genie_server::json::{escape, Json};
use genie_server::{api, GenieServer, ServerConfig};
use genie_templates::GeneratorConfig;
use luinet::ModelConfig;
use thingpedia::Thingpedia;

/// Fixed default seed: the committed `BENCH_robustness.json` was produced
/// with it, and the CI gate pins the schedule digest it induces.
const DEFAULT_SEED: u64 = 0x9E3779B97F4A7C15;
/// Hits per site over which the schedule digest is computed.
const DIGEST_HORIZON: u64 = 4096;
/// Budget after which a blocked read counts as a hung connection.
const HANG_BUDGET: Duration = Duration::from_secs(20);

/// Error codes a faulted server may legitimately answer with.
const TYPED_FAULT_CODES: &[&str] = &[
    "injected_fault",
    "internal_panic",
    "batch_crashed",
    "overloaded",
    "deadline_exceeded",
    "quota_exhausted",
    "shutting_down",
    "reload_in_progress",
    // Injected I/O faults and torn artifacts surface through the engine's
    // own typed codes (`genie_server::api::code_for_error`).
    "io",
    "corrupt_artifact",
];

/// The parse-path fault storm (phase A): connection drops and acceptor
/// kills at accept, handler errors and panics, dispatcher crashes.
fn parse_storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .site(
            "server.accept",
            SiteSpec::new().error(0.15).panic(0.10).delay(0.05, 2),
        )
        .site("server.handle", SiteSpec::new().error(0.03).panic(0.03))
        .site("coalescer.flush", SiteSpec::new().error(0.02).panic(0.02))
}

/// The reload fault storm (phase B): most rebuilds are injected to fail or
/// panic inside `reload.retrain`; every failure must leave the old world
/// serving and the version untouched.
fn reload_storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0xB10C_FA17)
        .site("reload.retrain", SiteSpec::new().error(0.40).panic(0.30))
}

fn flag_str(args: &[String], flag: &str) -> Option<String> {
    let position = args.iter().position(|a| a == flag)?;
    args.get(position + 1).cloned()
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

/// Utterances from the base library's training distribution — classes the
/// reload deltas never touch, so they must keep parsing across swaps.
fn workload(requests: usize, config: &PipelineConfig) -> Vec<ParseRequest> {
    let commands = training_commands(config, 48);
    (0..requests)
        .map(|i| ParseRequest::new(commands[i % commands.len()].clone()))
        .collect()
}

/// A read that blocks past [`HANG_BUDGET`] — never legitimate. Every other
/// read error is the server closing (or resetting) the connection, a
/// legitimate outcome of `server.accept` faults and post-panic teardown.
fn hung(error: &HttpError) -> bool {
    matches!(error, HttpError::Timeout | HttpError::IdleTimeout)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    // Under the fault storm every acceptor can be momentarily dead (an
    // injected panic at accept kills one; the supervisor respawns it within
    // its watchdog tick), so a refused connect is expected weather — retry
    // inside the hang budget and only a server that never comes back fails.
    let deadline = Instant::now() + HANG_BUDGET;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(HANG_BUDGET))
                    .expect("set the hang-detection read timeout");
                let reader = BufReader::new(stream.try_clone().expect("clone client stream"));
                return (stream, reader);
            }
            Err(error) => {
                assert!(
                    Instant::now() < deadline,
                    "server never came back within the hang budget: {error}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Is this body a well-formed typed error with a known code?
fn is_typed_fault(status: u16, body: &str) -> bool {
    (400..600).contains(&status)
        && body.starts_with("{\"error\":")
        && TYPED_FAULT_CODES
            .iter()
            .any(|code| body.contains(&format!("\"code\": \"{code}\"")))
}

/// Per-client tallies from a chaos pass.
#[derive(Default)]
struct Tally {
    identical: u64,
    typed_faults: u64,
    reconnects: u64,
    invalid: u64,
    hung: u64,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.identical += other.identical;
        self.typed_faults += other.typed_faults;
        self.reconnects += other.reconnects;
        self.invalid += other.invalid;
        self.hung += other.hung;
    }
}

/// One chaos client: serve `jobs` over a keep-alive connection under the
/// armed fault plan, reconnecting when the server drops the connection.
/// `strict_identity`: a 2xx answer must be byte-identical to the expected
/// rendering (phase A and the recovery pass — the world is not changing);
/// otherwise any well-formed 2xx/422 parse outcome is accepted (phase B,
/// where reloads may swap the world mid-pass).
fn run_chaos_client(
    addr: SocketAddr,
    jobs: Vec<(String, u16, String)>,
    strict_identity: bool,
) -> Tally {
    let mut tally = Tally::default();
    let (mut writer, mut reader) = connect(addr);
    for (job_index, (utterance, expected_status, expected_body)) in jobs.into_iter().enumerate() {
        // Churn connections on purpose: keep-alive would hit the accept
        // path only once per client, leaving the `server.accept` fault
        // site (and the acceptor respawn machinery behind it) unexercised.
        if job_index > 0 && job_index % 8 == 0 {
            (writer, reader) = connect(addr);
        }
        let body = parse_body(&utterance);
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            if http::write_request(&mut writer, "POST", "/v1/parse", body.as_bytes(), true).is_err()
            {
                tally.reconnects += 1;
                if attempts >= 4 {
                    break; // dropped repeatedly — a valid outcome; move on
                }
                (writer, reader) = connect(addr);
                continue;
            }
            match http::read_response(&mut reader, MAX_RESPONSE_BYTES) {
                Ok(response) => {
                    let text = response.text();
                    let matches_oracle =
                        (response.status, &*text) == (expected_status, expected_body.as_str());
                    let acceptable_parse = !strict_identity
                        && (response.status == 422 || (200..300).contains(&response.status));
                    if matches_oracle || acceptable_parse {
                        tally.identical += 1;
                    } else if is_typed_fault(response.status, &text) {
                        tally.typed_faults += 1;
                        // A handler panic closes the connection after
                        // answering; reconnect lazily on the next failure.
                    } else {
                        eprintln!(
                            "chaos: INVALID response for `{utterance}`: {} {text}",
                            response.status
                        );
                        tally.invalid += 1;
                    }
                    break;
                }
                Err(error) if hung(&error) => {
                    eprintln!("chaos: HUNG connection waiting on `{utterance}`");
                    tally.hung += 1;
                    return tally;
                }
                Err(_) => {
                    tally.reconnects += 1;
                    if attempts >= 4 {
                        break;
                    }
                    (writer, reader) = connect(addr);
                }
            }
        }
    }
    tally
}

/// One request on a fresh [`connect`]ion.
fn probe(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, HttpError> {
    let (mut writer, mut reader) = connect(addr);
    http::write_request(&mut writer, method, path, body.as_bytes(), true).map_err(HttpError::Io)?;
    http::read_response(&mut reader, MAX_RESPONSE_BYTES)
}

/// Probe `GET /v1/admin/version`, retrying dropped connections.
fn fetch_version(addr: SocketAddr) -> u64 {
    for _ in 0..8 {
        match probe(addr, "GET", "/v1/admin/version", "") {
            Ok(response) => {
                return Json::parse(&response.text())
                    .ok()
                    .and_then(|version| version.get("world_version")?.as_f64())
                    .expect("version body has world_version") as u64;
            }
            Err(error) if hung(&error) => panic!("hung fetching /v1/admin/version"),
            Err(_) => continue,
        }
    }
    panic!("could not fetch /v1/admin/version in 8 attempts");
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

/// Split the oracle round-robin across `clients`.
fn client_shares(
    expected: &[(String, u16, String)],
    clients: usize,
) -> Vec<Vec<(String, u16, String)>> {
    (0..clients)
        .map(|client| {
            expected
                .iter()
                .enumerate()
                .filter(|(i, _)| i % clients == client)
                .map(|(_, job)| job.clone())
                .collect()
        })
        .collect()
}

fn run_pass(
    addr: SocketAddr,
    expected: &[(String, u16, String)],
    clients: usize,
    strict_identity: bool,
) -> (Tally, f64) {
    let start = Instant::now();
    let handles: Vec<_> = client_shares(expected, clients)
        .into_iter()
        .map(|jobs| std::thread::spawn(move || run_chaos_client(addr, jobs, strict_identity)))
        .collect();
    let mut tally = Tally::default();
    for handle in handles {
        tally.merge(&handle.join().expect("chaos client thread"));
    }
    (tally, start.elapsed().as_secs_f64())
}

/// Silence the default panic hook's backtrace spew for *injected* panics —
/// they are the workload here, not failures. Everything else still prints.
fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if message.contains("injected panic") {
            return;
        }
        previous(info);
    }));
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = std::env::var("GENIE_BENCH_SMOKE").is_ok();
    let seed = flag_str(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let clients = flag_value(&args, "--clients").unwrap_or(4).max(1);
    let requests = flag_value(&args, "--requests").unwrap_or(if smoke { 160 } else { 480 });
    let swaps = flag_value(&args, "--swaps")
        .unwrap_or(if smoke { 4 } else { 8 })
        .max(2);
    let out_path = flag_str(&args, "--out").unwrap_or_else(|| "BENCH_robustness.json".to_owned());

    quiet_injected_panics();

    let parse_plan = parse_storm_plan(seed);
    let reload_plan = reload_storm_plan(seed);
    let parse_digest = failpoint::schedule_digest(&parse_plan, DIGEST_HORIZON);
    let reload_digest = failpoint::schedule_digest(&reload_plan, DIGEST_HORIZON);

    let target_per_rule = if smoke { 10 } else { 15 };
    let paraphrase_sample = if smoke { 20 } else { 40 };
    let pipeline = pipeline_config(target_per_rule, paraphrase_sample);
    let model = ModelConfig {
        epochs: 4,
        seed: 7,
        threads: 1,
        ..ModelConfig::default()
    };
    let workload = workload(requests, &pipeline);

    let boot_start = Instant::now();
    let live = Arc::new(
        LiveWorld::bootstrap(Thingpedia::builtin(), pipeline, model)
            .expect("bootstrap the live world"),
    );
    let bootstrap_secs = boot_start.elapsed().as_secs_f64();

    let steady_expected = expected_responses(live.engine(), &workload);

    let server = GenieServer::bind_live(
        live.clone(),
        ServerConfig::builder()
            .worker_threads((clients + 2).min(32))
            .max_inflight(256)
            .request_deadline(Duration::from_secs(10))
            .build()
            .expect("valid server config"),
    )
    .expect("bind the chaos server");
    let addr = server.local_addr();
    println!(
        "chaos-soak: listening on {addr} (bootstrap {bootstrap_secs:.3}s, seed {seed:#x}, \
         schedule digests {parse_digest:#018x}/{reload_digest:#018x})"
    );

    // --- Warm-up: one clean identity pass, faults disarmed.
    let (warm, _) = run_pass(addr, &steady_expected, clients, true);
    assert_eq!(warm.invalid, 0, "clean warm-up pass had invalid responses");
    assert_eq!(warm.hung, 0, "clean warm-up pass hung");
    let version_at_start = fetch_version(addr);

    // --- Phase A: parse-path fault storm. The world never changes, so
    // every 2xx must still be byte-identical; faults must surface as typed
    // errors or dropped connections, never as wrong answers or hangs.
    let chaos_start = Instant::now();
    let (storm, storm_fault_stats) = {
        let _armed = failpoint::armed(&parse_plan);
        let (storm, storm_secs) = run_pass(addr, &steady_expected, clients, true);
        println!(
            "chaos-soak: storm pass: {} identical, {} typed faults, {} reconnects, \
             {} invalid, {} hung ({:.1}s)",
            storm.identical,
            storm.typed_faults,
            storm.reconnects,
            storm.invalid,
            storm.hung,
            storm_secs,
        );
        // Snapshot before the guard drops: disarming clears the counters.
        let stats: Vec<String> = failpoint::snapshot()
            .into_iter()
            .map(|site| {
                json_object(&[
                    ("site", escape(&site.site)),
                    ("hits", site.hits.to_string()),
                    ("fired", site.fired.to_string()),
                ])
            })
            .collect();
        (storm, stats)
    };

    // --- Phase B: reload storm. Most rebuilds fail by injection; every
    // failure must leave the old world serving (version unchanged), every
    // success bumps the version by exactly one: monotonic throughout.
    // Light client load keeps flowing (typed-outcome mode: a reload mid-
    // pass may legitimately change 2xx bodies).
    let stop = Arc::new(AtomicBool::new(false));
    let reload_load = {
        // Last use of the steady oracle: the recovery pass re-derives its
        // own from the (possibly swapped) live engine.
        let expected = steady_expected;
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut tally = Tally::default();
            while !stop.load(Ordering::Relaxed) {
                let (pass, _) = run_pass(addr, &expected, 2, false);
                tally.merge(&pass);
            }
            tally
        })
    };
    let mut reloads_ok = 0u64;
    let mut reloads_failed = 0u64;
    let mut version_monotonic = true;
    let mut last_version = fetch_version(addr);
    assert_eq!(
        last_version, version_at_start,
        "phase A must not swap worlds"
    );
    {
        let _armed = failpoint::armed(&reload_plan);
        for swap in 1..=swaps {
            let body = format!(
                "{{\"op\": \"upsert\", \"class\": {}, \"templates\": \
                 [{{\"category\": \"vp\", \"function\": \"set_power\", \"utterance\": {}}}], \
                 \"mode\": \"full\", \"wait\": true}}",
                escape(
                    "class @com.chaos.lights { action set_power(in req power : Enum(on, off)); }"
                ),
                escape(&format!("chaos the lights $power v{swap}")),
            );
            let outcome = probe(addr, "POST", "/v1/admin/reload", &body);
            let version = fetch_version(addr);
            match outcome {
                Ok(response) if response.status == 200 => {
                    reloads_ok += 1;
                    if version != last_version + 1 {
                        eprintln!(
                            "chaos: reload {swap} succeeded but version went {last_version} -> {version}"
                        );
                        version_monotonic = false;
                    }
                }
                Ok(response) if is_typed_fault(response.status, &response.text()) => {
                    reloads_failed += 1;
                    if version != last_version {
                        eprintln!(
                            "chaos: reload {swap} failed typed but version went \
                             {last_version} -> {version}"
                        );
                        version_monotonic = false;
                    }
                }
                Ok(response) => {
                    panic!(
                        "reload {swap}: unexpected response {} {}",
                        response.status,
                        response.text()
                    );
                }
                Err(error) if hung(&error) => panic!("reload {swap}: admin connection hung"),
                Err(_) => panic!("reload {swap}: admin connection dropped"),
            }
            if version < last_version {
                version_monotonic = false;
            }
            last_version = version;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let reload_tally = reload_load.join().expect("reload-phase load thread");
    let chaos_secs = chaos_start.elapsed().as_secs_f64();
    println!(
        "chaos-soak: reload storm: {reloads_ok} swapped, {reloads_failed} failed typed, \
         version {version_at_start} -> {last_version} (monotonic: {version_monotonic})"
    );

    // --- Recovery: disarm everything, re-derive the oracle from the
    // now-current world, and require a 100% clean byte-identity pass.
    assert!(!failpoint::is_armed(), "fault plans must be disarmed");
    let recovered_expected = expected_responses(live.engine(), &workload);
    let (recovery, recovery_secs) = run_pass(addr, &recovered_expected, clients, true);
    println!(
        "chaos-soak: recovery pass: {} identical, {} typed faults, {} invalid, {} hung ({:.1}s)",
        recovery.identical, recovery.typed_faults, recovery.invalid, recovery.hung, recovery_secs,
    );

    let metrics_text = server.metrics_text();
    let panics = metric(&metrics_text, "server_panics_total");
    let respawns = metric(&metrics_text, "server_acceptor_respawns_total");
    let shed = metric(&metrics_text, "server_shed_total");
    let deadline_exceeded = metric(&metrics_text, "server_deadline_exceeded_total");
    let reload_failed_metric = metric(&metrics_text, "server_reload_failed_total");

    let all_responses_valid = storm.invalid == 0 && reload_tally.invalid == 0;
    let recovered_to_steady_state = recovery.invalid == 0
        && recovery.typed_faults == 0
        && recovery.reconnects == 0
        && recovery.identical == recovered_expected.len() as u64;
    let zero_hung_connections =
        storm.hung == 0 && reload_tally.hung == 0 && recovery.hung == 0 && warm.hung == 0;

    let report = json_object(&[
        ("bench", escape("chaos_soak")),
        ("smoke", smoke.to_string()),
        (
            "config",
            json_object(&[
                ("seed", format!("\"{seed:#018x}\"")),
                ("clients", clients.to_string()),
                ("requests", requests.to_string()),
                ("swaps", swaps.to_string()),
                ("digest_horizon", DIGEST_HORIZON.to_string()),
                ("target_per_rule", target_per_rule.to_string()),
                ("paraphrase_sample", paraphrase_sample.to_string()),
            ]),
        ),
        (
            "fault_schedule_digest",
            format!("\"{parse_digest:#018x}-{reload_digest:#018x}\""),
        ),
        (
            "storm_fault_sites",
            format!("[{}]", storm_fault_stats.join(", ")),
        ),
        (
            "storm",
            json_object(&[
                ("identical", storm.identical.to_string()),
                ("typed_faults", storm.typed_faults.to_string()),
                ("reconnects", storm.reconnects.to_string()),
                ("invalid", storm.invalid.to_string()),
                ("hung", storm.hung.to_string()),
            ]),
        ),
        (
            "reload_storm",
            json_object(&[
                ("attempted", swaps.to_string()),
                ("swapped", reloads_ok.to_string()),
                ("failed_typed", reloads_failed.to_string()),
                ("version_before", version_at_start.to_string()),
                ("version_after", last_version.to_string()),
                ("load_identical", reload_tally.identical.to_string()),
                ("load_typed_faults", reload_tally.typed_faults.to_string()),
                ("load_invalid", reload_tally.invalid.to_string()),
            ]),
        ),
        (
            "recovery",
            json_object(&[
                ("identical", recovery.identical.to_string()),
                ("typed_faults", recovery.typed_faults.to_string()),
                ("invalid", recovery.invalid.to_string()),
            ]),
        ),
        (
            "server_metrics",
            json_object(&[
                ("server_panics_total", panics.to_string()),
                ("server_acceptor_respawns_total", respawns.to_string()),
                ("server_shed_total", shed.to_string()),
                (
                    "server_deadline_exceeded_total",
                    deadline_exceeded.to_string(),
                ),
                (
                    "server_reload_failed_total",
                    reload_failed_metric.to_string(),
                ),
            ]),
        ),
        ("chaos_secs", format!("{chaos_secs:.3}")),
        ("bootstrap_secs", format!("{bootstrap_secs:.3}")),
        ("all_responses_valid", all_responses_valid.to_string()),
        ("version_monotonic", version_monotonic.to_string()),
        (
            "recovered_to_steady_state",
            recovered_to_steady_state.to_string(),
        ),
        ("zero_hung_connections", zero_hung_connections.to_string()),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write the robustness report");
    println!("chaos-soak: report written to {out_path}");

    assert!(all_responses_valid, "invalid responses under chaos");
    assert!(version_monotonic, "world version went backwards");
    assert!(
        recovered_to_steady_state,
        "post-chaos recovery pass was not clean"
    );
    assert!(zero_hung_connections, "a connection hung");
    println!("chaos-soak: PASS");
}
