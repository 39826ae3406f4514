//! Recovery soak: the durability and replication counterpart to
//! `chaos_soak`. Two phases, both seeded and byte-replayable:
//!
//! **Phase A — crash-restart storm.** A durable [`LiveWorld`] takes skill
//! deltas while the failpoint registry injects I/O errors and torn writes
//! into `journal.append`, `bundle.write`, and `reload.retrain`; then the
//! process "crashes" (the world is dropped with no clean shutdown) and
//! recovery re-opens the directory. Hard assertions:
//!
//! * every injected failure is a **typed** error and leaves the serving
//!   version untouched — never a wedged or half-swapped world;
//! * recovery always lands on the journal's last effective version;
//! * a version's `weights_digest` is **byte-identical across
//!   incarnations**: whenever two rounds (or a recovery) observe the same
//!   version, they observe the same digest. Delta content is a pure
//!   function of the target version, so this is the paper determinism
//!   contract under crash fire.
//!
//! **Phase B — follower convergence under a fault storm.** A durable
//! primary serves its delta feed while `server.handle` faults are armed;
//! a follower (`GenieServer::bind_follower`) polls through the storm with
//! retry/backoff. After disarming, the follower must converge on the
//! primary's exact `weights_digest`; after the primary is shut down the
//! follower must flip `/readyz` to 503 (degraded) while `/v1/parse` keeps
//! answering typed responses.
//!
//! Usage:
//!   recovery_soak [--seed N] [--rounds N] [--deltas N] [--out BENCH_recovery.json]
//!
//! `GENIE_BENCH_SMOKE=1` shrinks the workload to CI-smoke size.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie::live::LiveWorld;
use genie::paraphrase::ParaphraseConfig;
use genie::pipeline::PipelineConfig;
use genie::{RetrainMode, SkillDelta};
use genie_bench::{flag_value, json_object, metric, request};
use genie_nlp::failpoint::{self, FaultPlan, SiteSpec};
use genie_server::json::escape;
use genie_server::{FollowerConfig, GenieServer, ServerConfig};
use genie_templates::GeneratorConfig;
use luinet::ModelConfig;
use thingpedia::{PhraseCategory, PrimitiveTemplate, Thingpedia};

/// Fixed default seed: the committed `BENCH_recovery.json` was produced
/// with it, and the CI gate pins the schedule digests it induces.
const DEFAULT_SEED: u64 = 0x9E3779B97F4A7C15;
/// Hits per site over which the schedule digests are computed.
const DIGEST_HORIZON: u64 = 4096;
/// How long the follower gets to converge after the storm disarms.
const CONVERGENCE_BUDGET: Duration = Duration::from_secs(300);

/// Phase A: the durability fault storm — errors and torn writes at every
/// journal/bundle site plus injected rebuild failures.
fn crash_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .site("journal.append", SiteSpec::new().error(0.15).torn(0.15))
        .site("bundle.write", SiteSpec::new().error(0.15).torn(0.15))
        .site("reload.retrain", SiteSpec::new().error(0.20))
}

/// Phase B: the replication fault storm — the primary's request handlers
/// fail often enough that follower polls must retry and back off.
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0x5EED_FEED).site("server.handle", SiteSpec::new().error(0.20))
}

fn flag_str(args: &[String], flag: &str) -> Option<String> {
    let position = args.iter().position(|a| a == flag)?;
    args.get(position + 1).cloned()
}

fn pipeline_config() -> PipelineConfig {
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

/// The delta targeting `version` — a pure function of the version, so any
/// incarnation that commits `version` commits the identical library and
/// the digest cross-check below is meaningful.
fn delta_for(version: u64) -> SkillDelta {
    let class = thingtalk::syntax::parse_class(
        "class @com.soak.lights { action set_power(in req power : Enum(on, off)); }",
    )
    .expect("the soak class parses");
    let template = PrimitiveTemplate::new(
        &class.name,
        "set_power",
        PhraseCategory::VerbPhrase,
        format!("operate the soak lights mark {version} $power"),
    );
    SkillDelta::Upsert {
        class,
        templates: vec![template],
    }
}

/// The retrain mode for `version` — also version-keyed (the mode is part
/// of the journaled record, and recovery must replay it exactly): even
/// versions rebuild from scratch, odd versions fine-tune.
fn mode_for(version: u64) -> RetrainMode {
    if version.is_multiple_of(2) {
        RetrainMode::Full
    } else {
        RetrainMode::FineTune { epochs: 2 }
    }
}

/// Assert-or-insert into the cross-incarnation digest ledger. Returns
/// false when an existing entry disagrees — the determinism contract
/// broke.
fn ledger_check(ledger: &mut HashMap<u64, u64>, version: u64, digest: u64) -> bool {
    match ledger.get(&version) {
        Some(&known) => known == digest,
        None => {
            ledger.insert(version, digest);
            true
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("genie-recovery-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Phase A outcome.
struct CrashStorm {
    rounds: usize,
    applied: u64,
    typed_faults: u64,
    recoveries: u64,
    final_version: u64,
    mean_recovery_secs: f64,
    max_recovery_secs: f64,
    version_matches: bool,
    digest_matches: bool,
    typed_only: bool,
}

fn crash_restart_storm(
    dir: &Path,
    seed: u64,
    rounds: usize,
    deltas_per_round: usize,
    ledger: &mut HashMap<u64, u64>,
) -> CrashStorm {
    let plan = crash_plan(seed);
    let mut out = CrashStorm {
        rounds,
        applied: 0,
        typed_faults: 0,
        recoveries: 0,
        final_version: 0,
        mean_recovery_secs: 0.0,
        max_recovery_secs: 0.0,
        version_matches: true,
        digest_matches: true,
        typed_only: true,
    };
    let mut recovery_secs: Vec<f64> = Vec::new();
    for round in 0..rounds {
        // Recovery runs disarmed: crashes are injected around the deltas,
        // not around the recovery that must clean them up.
        let recover_start = Instant::now();
        let (world, report) = LiveWorld::open_durable(
            dir,
            Thingpedia::builtin(),
            pipeline_config(),
            model_config(),
        )
        .expect("recovery must always succeed");
        let elapsed = recover_start.elapsed().as_secs_f64();
        recovery_secs.push(elapsed);
        out.recoveries += 1;
        // Invariant: recovery lands exactly on the journal's last
        // effective version (or the cold-bootstrap version 1).
        let expected = world.journal_last_version().max(1);
        if world.version() != expected {
            eprintln!(
                "recovery-soak: round {round}: recovered version {} != journal last {expected}",
                world.version(),
            );
            out.version_matches = false;
        }
        if !ledger_check(ledger, world.version(), world.weights_digest()) {
            eprintln!(
                "recovery-soak: round {round}: digest for version {} drifted across incarnations",
                world.version(),
            );
            out.digest_matches = false;
        }
        println!(
            "recovery-soak: round {round}: recovered v{} (replayed {}, bundle {}) in {elapsed:.3}s",
            world.version(),
            report.replayed,
            report.recovered_from_bundle,
        );

        // Deltas under fire: injected journal/bundle/retrain faults must
        // surface typed and leave the version where it was.
        let guard = failpoint::armed(&plan);
        for _ in 0..deltas_per_round {
            let before = world.version();
            let target = before + 1;
            match world.reload_with(&delta_for(target), mode_for(target)) {
                Ok(swap) => {
                    out.applied += 1;
                    if !ledger_check(ledger, swap.version, world.weights_digest()) {
                        eprintln!(
                            "recovery-soak: round {round}: digest for version {} drifted",
                            swap.version,
                        );
                        out.digest_matches = false;
                    }
                }
                Err(error) => {
                    out.typed_faults += 1;
                    if world.version() != before {
                        eprintln!(
                            "recovery-soak: round {round}: failed reload moved the version: {error}",
                        );
                        out.typed_only = false;
                    }
                }
            }
        }
        drop(guard);
        out.final_version = world.version();
        // Crash: no clean shutdown, just drop mid-life. The journal and
        // bundle on disk are whatever the faulted appends left behind.
        drop(world);
    }
    out.mean_recovery_secs = recovery_secs.iter().sum::<f64>() / recovery_secs.len() as f64;
    out.max_recovery_secs = recovery_secs.iter().cloned().fold(0.0, f64::max);
    out
}

/// Phase B outcome.
struct Replication {
    primary_version: u64,
    follower_version: u64,
    polls: u64,
    applied: u64,
    resyncs: u64,
    errors: u64,
    converged: bool,
    digest_matches: bool,
    degraded_served: bool,
}

fn follower_storm(dir: &Path, seed: u64, storm_deltas: usize) -> Replication {
    let (primary_live, _) = LiveWorld::open_durable(
        dir,
        Thingpedia::builtin(),
        pipeline_config(),
        model_config(),
    )
    .expect("bootstrap the durable primary");
    let primary_live = Arc::new(primary_live);
    let follower_live = Arc::new(
        LiveWorld::bootstrap(Thingpedia::builtin(), pipeline_config(), model_config())
            .expect("bootstrap the follower world"),
    );
    let server_config = || {
        ServerConfig::builder()
            .worker_threads(2)
            .build()
            .expect("valid server config")
    };
    let mut primary =
        GenieServer::bind_live(primary_live.clone(), server_config()).expect("bind the primary");
    let follower_config = FollowerConfig::builder(primary.local_addr().to_string())
        .poll_interval(Duration::from_millis(25))
        .backoff(Duration::from_millis(20), Duration::from_millis(200))
        .attempt_timeout(Duration::from_secs(5))
        .retry_budget(2)
        .seed(seed)
        .build()
        .expect("valid follower config");
    let mut follower =
        GenieServer::bind_follower(follower_live.clone(), server_config(), follower_config)
            .expect("bind the follower");
    let follower_addr = follower.local_addr();

    // Advance the primary while its handlers are under fire: follower
    // polls fail typed, back off, and keep retrying.
    {
        let _armed = failpoint::armed(&storm_plan(seed));
        for _ in 0..storm_deltas {
            let target = primary_live.version() + 1;
            primary_live
                .reload_with(&delta_for(target), mode_for(target))
                .expect("primary reloads run disarmed sites only");
        }
        // Hold the storm open long enough for polls to fail against the
        // already-advanced primary, so backoff and the error counters are
        // actually exercised.
        std::thread::sleep(Duration::from_secs(2));
    }

    // Storm over: the follower must converge on the primary's world.
    let deadline = Instant::now() + CONVERGENCE_BUDGET;
    while follower_live.version() < primary_live.version() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let converged = follower_live.version() == primary_live.version();
    let digest_matches =
        converged && follower_live.weights_digest() == primary_live.weights_digest();

    let metrics_text = follower.metrics_text();
    let mut out = Replication {
        primary_version: primary_live.version(),
        follower_version: follower_live.version(),
        polls: metric(&metrics_text, "server_replication_polls_total"),
        applied: metric(&metrics_text, "server_replication_applied_total"),
        resyncs: metric(&metrics_text, "server_replication_resyncs_total"),
        errors: metric(&metrics_text, "server_replication_errors_total"),
        converged,
        digest_matches,
        degraded_served: false,
    };
    println!(
        "recovery-soak: follower at v{} / primary v{} ({} polls, {} applied, {} resyncs, {} errors)",
        out.follower_version, out.primary_version, out.polls, out.applied, out.resyncs, out.errors,
    );

    // Kill the primary: the follower must degrade (503 readiness) while
    // its parse path keeps answering typed responses.
    primary.shutdown();
    drop(primary);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut degraded = false;
    while Instant::now() < deadline {
        let readiness = request(follower_addr, "GET", "/readyz", "").expect("readiness probe");
        if readiness.status == 503 {
            degraded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let parse = request(
        follower_addr,
        "POST",
        "/v1/parse",
        "{\"utterance\": \"zz recovery soak zz\"}",
    )
    .expect("degraded parse");
    out.degraded_served = degraded && parse.status == 422 && parse.text().contains("\"error\"");
    if !out.degraded_served {
        eprintln!(
            "recovery-soak: degraded serving failed (degraded={degraded}, parse {} {})",
            parse.status,
            parse.text(),
        );
    }
    follower.shutdown();
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = std::env::var("GENIE_BENCH_SMOKE").is_ok();
    let seed = flag_str(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let rounds = flag_value(&args, "--rounds")
        .unwrap_or(if smoke { 3 } else { 5 })
        .max(2);
    let deltas_per_round = flag_value(&args, "--deltas").unwrap_or(2).max(1);
    let storm_deltas = if smoke { 1 } else { 2 };
    let out_path = flag_str(&args, "--out").unwrap_or_else(|| "BENCH_recovery.json".to_owned());

    let crash_digest = failpoint::schedule_digest(&crash_plan(seed), DIGEST_HORIZON);
    let storm_digest = failpoint::schedule_digest(&storm_plan(seed), DIGEST_HORIZON);
    println!(
        "recovery-soak: seed {seed:#x}, schedule digests {crash_digest:#018x}/{storm_digest:#018x}"
    );

    // The cross-incarnation digest ledger spans both phases: phase B's
    // primary recovers from phase A's directory, so its versions are
    // checked against what phase A observed.
    let mut ledger: HashMap<u64, u64> = HashMap::new();
    let dir = scratch_dir("world");
    let total_start = Instant::now();
    let crash = crash_restart_storm(&dir, seed, rounds, deltas_per_round, &mut ledger);
    let replication = follower_storm(&dir, seed, storm_deltas);
    let total_secs = total_start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    let invariants = [
        ("recovered_version_matches", crash.version_matches),
        ("recovered_digest_matches", crash.digest_matches),
        ("typed_faults_only", crash.typed_only),
        ("follower_converged", replication.converged),
        ("follower_digest_matches", replication.digest_matches),
        ("degraded_mode_served", replication.degraded_served),
    ];

    let report = json_object(&[
        ("bench", escape("recovery_soak")),
        ("smoke", smoke.to_string()),
        (
            "config",
            json_object(&[
                ("seed", escape(&format!("{seed:#018x}"))),
                ("rounds", rounds.to_string()),
                ("deltas_per_round", deltas_per_round.to_string()),
                ("storm_deltas", storm_deltas.to_string()),
            ]),
        ),
        (
            "fault_schedule_digest",
            escape(&format!("{crash_digest:#018x}-{storm_digest:#018x}")),
        ),
        (
            "crash_storm",
            json_object(&[
                ("rounds", crash.rounds.to_string()),
                ("applied", crash.applied.to_string()),
                ("typed_faults", crash.typed_faults.to_string()),
                ("recoveries", crash.recoveries.to_string()),
                ("final_version", crash.final_version.to_string()),
                (
                    "mean_recovery_secs",
                    format!("{:.3}", crash.mean_recovery_secs),
                ),
                (
                    "max_recovery_secs",
                    format!("{:.3}", crash.max_recovery_secs),
                ),
            ]),
        ),
        (
            "replication",
            json_object(&[
                ("primary_version", replication.primary_version.to_string()),
                ("follower_version", replication.follower_version.to_string()),
                ("polls", replication.polls.to_string()),
                ("applied", replication.applied.to_string()),
                ("resyncs", replication.resyncs.to_string()),
                ("errors", replication.errors.to_string()),
            ]),
        ),
        (
            "invariants",
            json_object(
                &invariants
                    .iter()
                    .map(|(name, held)| (*name, held.to_string()))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("total_secs", format!("{total_secs:.3}")),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write the recovery report");
    println!("recovery-soak: report written to {out_path}");

    let mut failed = false;
    for (name, held) in invariants {
        if !held {
            eprintln!("recovery-soak: INVARIANT BROKEN: {name}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("recovery-soak: PASS");
}
