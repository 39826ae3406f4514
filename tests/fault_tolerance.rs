//! Fault-tolerance tests for the `genie-server` front-end: a panicking
//! request handler answers `500` and the server keeps serving, a dead
//! acceptor thread is respawned by the watchdog, the overload gate sheds
//! with `503` + `Retry-After`, expired deadlines answer a typed `504`,
//! and `POST /v1/admin/reload` hands the rebuild to a background builder
//! (202-accepted) that the status endpoint tracks to completion.
//!
//! These tests live in their own binary because several of them arm the
//! **process-global** failpoint registry (`genie_nlp::failpoint`). The
//! test harness still runs tests in this binary on parallel threads, so
//! every test that talks to a server serializes on
//! [`genie_nlp::failpoint::registry_test_lock`] — a test that armed
//! `server.handle` must never overlap a test that assumed a quiet
//! registry.

use std::net::SocketAddr;
use std::sync::{Arc, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use genie::engine::{GenieEngine, ParseRequest};
use genie::paraphrase::ParaphraseConfig;
use genie::pipeline::PipelineConfig;
use genie::LiveWorld;
use genie_bench::{metric, parse_body, request};
use genie_nlp::failpoint::{self, FaultPlan, SiteSpec};
use genie_server::http::Response;
use genie_server::json::Json;
use genie_server::{GenieServer, ServerConfig};
use genie_templates::GeneratorConfig;
use luinet::{LuinetParser, ModelConfig};
use thingpedia::Thingpedia;

// ---------------------------------------------------------------------------
// Serialization + fixtures
// ---------------------------------------------------------------------------

/// Serializes every test in this binary: the failpoint registry is
/// process-global, so an armed plan in one test would inject faults into
/// a server under test in another.
fn registry_lock() -> MutexGuard<'static, ()> {
    failpoint::registry_test_lock()
}

/// Injected panics are part of the script here; keep them out of the test
/// output while still printing any *unexpected* panic. Installed once —
/// the hook is process-global, like the registry.
fn quiet_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
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
    });
}

/// One trained model for the whole file; per-test engines are cheap views
/// over it.
fn fixture() -> &'static (Arc<LuinetParser>, String) {
    static FIXTURE: OnceLock<(Arc<LuinetParser>, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let pipeline = small_pipeline();
        let engine = GenieEngine::builder()
            .train(
                pipeline,
                ModelConfig {
                    epochs: 5,
                    seed: 11,
                    ..ModelConfig::default()
                },
            )
            .unwrap()
            .build()
            .unwrap();
        let library = Thingpedia::builtin();
        let data = genie::DataPipeline::new(&library, pipeline)
            .build()
            .unwrap();
        let utterance = data
            .synthesized
            .examples
            .iter()
            .map(|e| e.text())
            .find(|u| {
                engine
                    .parse(&ParseRequest::new(u.clone()).bypass_cache())
                    .is_ok()
            })
            .expect("the engine answers none of its own training utterances");
        (engine.model(), utterance)
    })
}

fn small_pipeline() -> PipelineConfig {
    PipelineConfig::builder()
        .synthesis(
            GeneratorConfig::builder()
                .target_per_rule(10)
                .instantiations_per_template(1)
                .seed(11)
                .quiet(true)
                .build()
                .unwrap(),
        )
        .paraphrase(
            ParaphraseConfig::builder()
                .per_sentence(1)
                .error_rate(0.0)
                .seed(11)
                .build()
                .unwrap(),
        )
        .paraphrase_sample(20)
        .parameter_expansion(false)
        .seed(11)
        .build()
        .unwrap()
}

fn engine() -> GenieEngine {
    let (model, _) = fixture();
    GenieEngine::builder()
        .model_shared(model.clone())
        .threads(1)
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------------
// Client helpers
// ---------------------------------------------------------------------------

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    request(addr, "POST", path, body).expect("no response")
}

fn get(addr: SocketAddr, path: &str) -> Response {
    request(addr, "GET", path, "").expect("no response")
}

/// The `error.code` of a typed error body.
fn code_of(response: &Response) -> String {
    Json::parse(&response.text())
        .ok()
        .and_then(|body| Some(body.get("error")?.get("code")?.as_str()?.to_owned()))
        .unwrap_or_else(|| panic!("no error code in: {}", response.text()))
}

// ---------------------------------------------------------------------------
// Supervision: panics are caught, dead acceptors come back
// ---------------------------------------------------------------------------

#[test]
fn a_panicking_handler_answers_500_and_the_server_keeps_serving() {
    let _serialized = registry_lock();
    quiet_injected_panics();
    let server = GenieServer::bind(
        engine(),
        ServerConfig::builder().worker_threads(2).build().unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let (_, utterance) = fixture();

    let plan =
        FaultPlan::new(0xF417).site("server.handle", SiteSpec::new().panic(1.0).max_fires(1));
    {
        let _armed = failpoint::armed(&plan);
        let crashed = post(addr, "/v1/parse", &parse_body(utterance));
        assert_eq!(crashed.status, 500, "body: {}", crashed.text());
        assert_eq!(code_of(&crashed), "internal_panic");
        // The panic was supervised: the very next request (same worker
        // pool) parses normally.
        let healthy = post(addr, "/v1/parse", &parse_body(utterance));
        assert_eq!(healthy.status, 200, "body: {}", healthy.text());
    }
    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "server_panics_total"), 1);
    assert_eq!(metric(&metrics, "server_acceptor_respawns_total"), 0);
}

#[test]
fn a_dead_acceptor_is_respawned_by_the_watchdog() {
    let _serialized = registry_lock();
    quiet_injected_panics();
    let server = GenieServer::bind(
        engine(),
        ServerConfig::builder().worker_threads(2).build().unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let (_, utterance) = fixture();

    let plan =
        FaultPlan::new(0xACC3).site("server.accept", SiteSpec::new().panic(1.0).max_fires(1));
    {
        let _armed = failpoint::armed(&plan);
        // The injected panic kills the acceptor right after accept: this
        // connection closes with no response written.
        let dropped = request(addr, "POST", "/v1/parse", &parse_body(utterance));
        assert!(
            dropped.is_err(),
            "the panicking acceptor should have dropped the connection"
        );
    }
    // The watchdog notices the dead thread on its next tick and respawns
    // it; until then the surviving acceptor keeps the port serving.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = server.metrics_text();
        if metric(&metrics, "server_acceptor_respawns_total") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never respawned the dead acceptor:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Back to full strength: requests keep being answered.
    for _ in 0..3 {
        let healthy = post(addr, "/v1/parse", &parse_body(utterance));
        assert_eq!(healthy.status, 200, "body: {}", healthy.text());
    }
}

// ---------------------------------------------------------------------------
// Overload shedding and deadlines
// ---------------------------------------------------------------------------

#[test]
fn overload_sheds_with_503_and_retry_after_instead_of_queueing() {
    let _serialized = registry_lock();
    let server = GenieServer::bind(
        engine(),
        ServerConfig::builder()
            .worker_threads(4)
            // One admission slot, and a long coalesce window so the first
            // request provably still holds it when the second arrives.
            .max_inflight(1)
            .coalesce_window(Duration::from_millis(400))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let (_, utterance) = fixture();

    let first = {
        let utterance = utterance.clone();
        std::thread::spawn(move || post(addr, "/v1/parse", &parse_body(&utterance)))
    };
    // Give the first request time to take the only slot and park in the
    // coalescer window, then overflow the gate.
    std::thread::sleep(Duration::from_millis(150));
    let shed = post(addr, "/v1/parse", &parse_body(utterance));
    assert_eq!(shed.status, 503, "body: {}", shed.text());
    assert_eq!(code_of(&shed), "overloaded");
    assert_eq!(
        shed.header("Retry-After"),
        Some("1"),
        "a shed response must carry Retry-After"
    );

    // The admitted request is unharmed by the shed one.
    let admitted = first.join().unwrap();
    assert_eq!(admitted.status, 200, "body: {}", admitted.text());
    assert!(metric(&server.metrics_text(), "server_shed_total") >= 1);
}

#[test]
fn requests_past_their_deadline_answer_a_typed_504() {
    let _serialized = registry_lock();
    let server = GenieServer::bind(
        engine(),
        ServerConfig::builder()
            .worker_threads(2)
            // The deadline expires while the lone request waits out the
            // coalesce window: deterministically too late.
            .request_deadline(Duration::from_millis(50))
            .coalesce_window(Duration::from_millis(400))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let (_, utterance) = fixture();

    let late = post(addr, "/v1/parse", &parse_body(utterance));
    assert_eq!(late.status, 504, "body: {}", late.text());
    assert_eq!(code_of(&late), "deadline_exceeded");
    assert!(metric(&server.metrics_text(), "server_deadline_exceeded_total") >= 1);
}

// ---------------------------------------------------------------------------
// Background reload: 202-accepted, status endpoint, version advance
// ---------------------------------------------------------------------------

#[test]
fn reload_returns_202_and_the_background_builder_swaps_the_world() {
    // Bootstrap outside the lock — it takes a second and arms nothing.
    let live = Arc::new(
        LiveWorld::bootstrap(
            Thingpedia::builtin(),
            small_pipeline(),
            ModelConfig {
                epochs: 4,
                seed: 11,
                threads: 1,
                ..ModelConfig::default()
            },
        )
        .unwrap(),
    );
    let _serialized = registry_lock();
    let server = GenieServer::bind_live(
        live.clone(),
        ServerConfig::builder().worker_threads(2).build().unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();

    let class = "class @com.test.lights { action set_power(in req power : Enum(on, off)); }";
    let body = format!(
        "{{\"op\": \"upsert\", \"class\": {}, \"templates\": \
         [{{\"category\": \"vp\", \"function\": \"set_power\", \
         \"utterance\": \"flip the test lights $power\"}}], \"mode\": \"full\"}}",
        genie_server::json::escape(class),
    );
    // No "wait" flag: the acceptor hands the rebuild to the background
    // builder and answers immediately.
    let accepted = post(addr, "/v1/admin/reload", &body);
    assert_eq!(accepted.status, 202, "body: {}", accepted.text());
    assert!(
        accepted.text().contains("\"status\": \"accepted\""),
        "body: {}",
        accepted.text()
    );
    assert!(
        accepted.text().contains("\"accepted_version\": 1"),
        "body: {}",
        accepted.text()
    );

    // Poll the status endpoint until the builder goes idle at version 2.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = get(addr, "/v1/admin/reload/status");
        assert_eq!(status.status, 200, "body: {}", status.text());
        if status.text().contains("\"state\": \"idle\"")
            && status.text().contains("\"world_version\": 2")
        {
            assert!(
                status.text().contains("\"last_error\": null"),
                "body: {}",
                status.text()
            );
            assert!(
                !status.text().contains("\"last_report\": null"),
                "body: {}",
                status.text()
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background reload never finished: {}",
            status.text()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let version = get(addr, "/v1/admin/version");
    assert!(
        version.text().contains("\"world_version\": 2"),
        "body: {}",
        version.text()
    );
    assert_eq!(live.version(), 2);
    assert_eq!(metric(&server.metrics_text(), "server_reload_ok_total"), 1);
}

#[test]
fn reload_endpoints_answer_503_not_live_without_a_live_world() {
    let _serialized = registry_lock();
    let server = GenieServer::bind(
        engine(),
        ServerConfig::builder().worker_threads(1).build().unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();

    let reload = post(
        addr,
        "/v1/admin/reload",
        "{\"op\": \"remove\", \"name\": \"x\"}",
    );
    assert_eq!(reload.status, 503, "body: {}", reload.text());
    assert_eq!(code_of(&reload), "not_live");
    let status = get(addr, "/v1/admin/reload/status");
    assert_eq!(status.status, 503, "body: {}", status.text());
    assert_eq!(code_of(&status), "not_live");
    // The version endpoint tells clients this server cannot hot-swap.
    let version = get(addr, "/v1/admin/version");
    assert!(
        version.text().contains("\"live\": false"),
        "body: {}",
        version.text()
    );
}
