//! Replica catch-up end to end: a follower bound with
//! [`GenieServer::bind_follower`] polls its primary's delta feed, replays
//! journal records through the same deterministic rebuild the primary ran,
//! and converges on the primary's `weights_digest` byte for byte. When the
//! primary is unreachable the follower keeps serving its last world in
//! degraded mode (`/readyz` flips to 503); when it has fallen too far
//! behind it resyncs wholesale from the primary's sealed world bundle.
//!
//! No failpoints are armed here, so these tests run in the harness's
//! normal parallel threads (unlike `fault_tolerance.rs`).

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie::live::LiveWorld;
use genie::ParaphraseConfig;
use genie::PipelineConfig;
use genie_bench::{metric, request};
use genie_server::http::Response;
use genie_server::json::Json;
use genie_server::{FollowerConfig, GenieServer, ServerConfig};
use genie_templates::GeneratorConfig;
use luinet::ModelConfig;
use thingpedia::{PhraseCategory, PrimitiveTemplate, Thingpedia};

/// How long a follower gets to converge before the test gives up. Each
/// applied record is a full deterministic rebuild (synthesis + retrain),
/// so this is generous on purpose.
const CONVERGENCE_DEADLINE: Duration = Duration::from_secs(300);

// ---------------------------------------------------------------------------
// Fixtures: the same small deterministic world `recovery.rs` uses
// ---------------------------------------------------------------------------

fn pipeline() -> PipelineConfig {
    PipelineConfig::builder()
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
                .unwrap(),
        )
        .paraphrase(
            ParaphraseConfig::builder()
                .per_sentence(1)
                .error_rate(0.0)
                .seed(7)
                .build()
                .unwrap(),
        )
        .paraphrase_sample(20)
        .parameter_expansion(false)
        .seed(7)
        .build()
        .unwrap()
}

fn model() -> ModelConfig {
    ModelConfig {
        epochs: 4,
        seed: 7,
        threads: 1,
        ..ModelConfig::default()
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("genie-replication-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn reload_body(utterance: &str) -> String {
    let class = "class @com.test.lights { action set_power(in req power : Enum(on, off)); }";
    format!(
        "{{\"op\": \"upsert\", \"class\": {}, \"templates\": \
         [{{\"category\": \"vp\", \"function\": \"set_power\", \
         \"utterance\": {}}}], \"mode\": \"full\", \"wait\": true}}",
        genie_server::json::escape(class),
        genie_server::json::escape(utterance),
    )
}

fn lights_delta(utterance: &str) -> genie::SkillDelta {
    let class = thingtalk::syntax::parse_class(
        "class @com.test.lights { action set_power(in req power : Enum(on, off)); }",
    )
    .unwrap();
    let template = PrimitiveTemplate::new(
        &class.name,
        "set_power",
        PhraseCategory::VerbPhrase,
        utterance.to_owned(),
    );
    genie::SkillDelta::Upsert {
        class,
        templates: vec![template],
    }
}

fn server_config() -> ServerConfig {
    ServerConfig::builder().worker_threads(2).build().unwrap()
}

// ---------------------------------------------------------------------------
// Client helpers
// ---------------------------------------------------------------------------

fn get(addr: SocketAddr, path: &str) -> Response {
    request(addr, "GET", path, "").expect("no response")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    request(addr, "POST", path, body).expect("no response")
}

/// The `"weights_digest": "0x…"` value out of a `/v1/admin/version` body.
fn digest_of(version: &Response) -> String {
    Json::parse(&version.text())
        .ok()
        .and_then(|body| Some(body.get("weights_digest")?.as_str()?.to_owned()))
        .unwrap_or_else(|| panic!("no weights_digest in: {}", version.text()))
}

fn wait_for(deadline: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let give_up = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

// ---------------------------------------------------------------------------
// Catch-up: record-by-record replay converges on the primary's digest
// ---------------------------------------------------------------------------

#[test]
fn a_follower_replays_the_delta_feed_and_matches_the_primary_digest() {
    // The primary must journal for its delta feed to carry records —
    // a non-durable primary only ever offers the bundle path.
    let dir = scratch_dir("catchup-primary");
    let (primary_live, _) =
        LiveWorld::open_durable(&dir, Thingpedia::builtin(), pipeline(), model()).unwrap();
    let primary_live = Arc::new(primary_live);
    let follower_live =
        Arc::new(LiveWorld::bootstrap(Thingpedia::builtin(), pipeline(), model()).unwrap());
    // Determinism precondition: two cold bootstraps of the same config are
    // the same world. Everything below builds on this.
    assert_eq!(
        primary_live.weights_digest(),
        follower_live.weights_digest()
    );

    let mut primary = GenieServer::bind_live(primary_live.clone(), server_config()).unwrap();
    let follower_config = FollowerConfig::builder(primary.local_addr().to_string())
        .poll_interval(Duration::from_millis(25))
        .backoff(Duration::from_millis(20), Duration::from_millis(200))
        .build()
        .unwrap();
    let mut follower =
        GenieServer::bind_follower(follower_live.clone(), server_config(), follower_config)
            .unwrap();

    // Followers take writes from their primary only: a direct reload is a
    // typed refusal, not a fork of history.
    let refused = post(
        follower.local_addr(),
        "/v1/admin/reload",
        "{\"op\": \"remove\", \"name\": \"x\"}",
    );
    assert_eq!(refused.status, 503, "body: {}", refused.text());

    // Advance the primary (synchronous reload: the response carries the
    // swap report), then let the poller replay the record.
    let swapped = post(
        primary.local_addr(),
        "/v1/admin/reload",
        &reload_body("flip the replicated lights $power"),
    );
    assert_eq!(swapped.status, 200, "body: {}", swapped.text());
    assert_eq!(primary_live.version(), 2);

    wait_for(
        CONVERGENCE_DEADLINE,
        "follower catch-up to version 2",
        || follower_live.version() == 2,
    );
    assert_eq!(
        follower_live.weights_digest(),
        primary_live.weights_digest(),
        "the replayed rebuild must be byte-identical to the primary's"
    );

    // The same identity must hold over the wire, and the follower must
    // report itself ready with zero lag.
    let primary_version = get(primary.local_addr(), "/v1/admin/version");
    let follower_version = get(follower.local_addr(), "/v1/admin/version");
    assert_eq!(digest_of(&primary_version), digest_of(&follower_version));
    let ready = get(follower.local_addr(), "/readyz");
    assert_eq!(ready.status, 200, "body: {}", ready.text());
    assert!(
        ready.text().contains("\"role\": \"follower\""),
        "body: {}",
        ready.text()
    );
    assert!(
        ready.text().contains("\"ready\": true"),
        "body: {}",
        ready.text()
    );
    let metrics = follower.metrics_text();
    assert!(metric(&metrics, "server_replication_applied_total") >= 1);
    assert_eq!(metric(&metrics, "server_replication_lag"), 0);
    assert_eq!(metric(&metrics, "server_degraded"), 0);

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Degraded mode: an unreachable primary flips /readyz, parsing continues
// ---------------------------------------------------------------------------

#[test]
fn an_unreachable_primary_degrades_the_follower_but_parsing_continues() {
    // A listener that accepts into its backlog and never answers: every
    // poll attempt times out. Keeping it bound (instead of pointing at a
    // closed port) guards against another test grabbing the port.
    let black_hole = TcpListener::bind("127.0.0.1:0").unwrap();
    let primary_addr = black_hole.local_addr().unwrap();

    let follower_live =
        Arc::new(LiveWorld::bootstrap(Thingpedia::builtin(), pipeline(), model()).unwrap());
    let follower_config = FollowerConfig::builder(primary_addr.to_string())
        .poll_interval(Duration::from_millis(25))
        .backoff(Duration::from_millis(20), Duration::from_millis(100))
        .attempt_timeout(Duration::from_millis(100))
        .retry_budget(2)
        .build()
        .unwrap();
    let mut follower =
        GenieServer::bind_follower(follower_live, server_config(), follower_config).unwrap();
    let addr = follower.local_addr();

    wait_for(Duration::from_secs(60), "degraded mode", || {
        get(addr, "/readyz").status == 503
    });
    let ready = get(addr, "/readyz");
    assert!(
        ready.text().contains("\"status\": \"degraded\""),
        "body: {}",
        ready.text()
    );
    assert!(
        ready.text().contains("\"degraded\": true"),
        "body: {}",
        ready.text()
    );
    assert!(
        ready.text().contains("\"role\": \"follower\""),
        "body: {}",
        ready.text()
    );
    let metrics = follower.metrics_text();
    assert_eq!(metric(&metrics, "server_degraded"), 1);
    assert!(metric(&metrics, "server_replication_errors_total") >= 2);

    // Degraded ≠ down: liveness holds and the last world keeps answering
    // parses (a nonsense utterance earns a *typed* 422, not a refusal).
    assert_eq!(get(addr, "/healthz").status, 200);
    let parse = post(addr, "/v1/parse", "{\"utterance\": \"zz unparseable zz\"}");
    assert_eq!(parse.status, 422, "body: {}", parse.text());
    assert!(parse.text().contains("\"error\""), "body: {}", parse.text());

    follower.shutdown();
    drop(black_hole);
}

// ---------------------------------------------------------------------------
// Resync: a follower too far behind installs the primary's sealed bundle
// ---------------------------------------------------------------------------

#[test]
fn a_lagging_follower_resyncs_from_the_primary_bundle() {
    // The primary must be durable — the bundle endpoint serves its sealed
    // `world.bundle` verbatim.
    let dir = scratch_dir("resync-primary");
    let (primary_live, _) =
        LiveWorld::open_durable(&dir, Thingpedia::builtin(), pipeline(), model()).unwrap();
    let primary_live = Arc::new(primary_live);
    primary_live
        .reload(&lights_delta("turn the resync lights $power"))
        .unwrap();
    primary_live
        .reload(&lights_delta("switch the resync lights $power"))
        .unwrap();
    assert_eq!(primary_live.version(), 3);

    let follower_live =
        Arc::new(LiveWorld::bootstrap(Thingpedia::builtin(), pipeline(), model()).unwrap());
    let mut primary = GenieServer::bind_live(primary_live.clone(), server_config()).unwrap();
    // resync_lag 1: trailing by two versions makes record-by-record replay
    // "uneconomical", forcing the bundle path.
    let follower_config = FollowerConfig::builder(primary.local_addr().to_string())
        .poll_interval(Duration::from_millis(25))
        .backoff(Duration::from_millis(20), Duration::from_millis(200))
        .resync_lag(1)
        .build()
        .unwrap();
    let mut follower =
        GenieServer::bind_follower(follower_live.clone(), server_config(), follower_config)
            .unwrap();

    wait_for(CONVERGENCE_DEADLINE, "bundle resync to version 3", || {
        follower_live.version() == 3
    });
    assert_eq!(
        follower_live.weights_digest(),
        primary_live.weights_digest(),
        "the installed bundle must carry the primary's exact model"
    );
    let metrics = follower.metrics_text();
    assert!(metric(&metrics, "server_replication_resyncs_total") >= 1);
    assert_eq!(metric(&metrics, "server_replication_lag"), 0);
    let ready = get(follower.local_addr(), "/readyz");
    assert_eq!(ready.status, 200, "body: {}", ready.text());

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
