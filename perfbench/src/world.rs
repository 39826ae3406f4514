//! The system under test: a durable live world served by a real
//! `genie-server`, the in-process oracle engine loaded from its snapshot,
//! and cold builds that replay a reload's synthesis and training.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use genie::engine::{EngineBuilder, GenieEngine};
use genie::live::LiveWorld;
use genie::paraphrase::ParaphraseConfig;
use genie::pipeline::{DataPipeline, NnOptions, PipelineConfig, StreamStats};
use genie_server::{GenieServer, ServerConfig};
use genie_templates::GeneratorConfig;
use luinet::{LuinetParser, ModelConfig};
use thingpedia::{ParamDatasets, Thingpedia};

/// Synthesis target per construct rule: sized so that a cold bootstrap
/// takes about a second on a 2-core host.
pub const TARGET_PER_RULE: usize = 100;
pub const MAX_DEPTH: usize = 4;
pub const PARAPHRASE_SAMPLE: usize = 200;
pub const EPOCHS: usize = 3;
/// The world is fixed across workload seeds: the seed varies the traffic,
/// not the system under test.
pub const WORLD_SEED: u64 = 7;
/// Acceptor threads: two load connections, one admin connection, spare.
pub const SERVER_THREADS: usize = 4;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The pipeline every world in the benchmark is built with. `threads`
/// sets the synthesis workers (0 = all cores; never changes output).
pub fn pipeline_config(threads: usize) -> PipelineConfig {
    PipelineConfig::builder()
        .synthesis(
            GeneratorConfig::builder()
                .target_per_rule(TARGET_PER_RULE)
                .max_depth(MAX_DEPTH)
                .instantiations_per_template(1)
                .seed(WORLD_SEED)
                .threads(threads)
                // Live worlds force per-template pool streams; cold builds
                // must use the same dataset identity.
                .pool_streams(true)
                .quiet(true)
                .build()
                .expect("valid synthesis config"),
        )
        .paraphrase(
            ParaphraseConfig::builder()
                .per_sentence(1)
                .error_rate(0.0)
                .seed(WORLD_SEED)
                .build()
                .expect("valid paraphrase config"),
        )
        .paraphrase_sample(PARAPHRASE_SAMPLE)
        .parameter_expansion(false)
        .seed(WORLD_SEED)
        .build()
        .expect("valid pipeline config")
}

/// The model every world is trained with (all cores).
pub fn model_config() -> ModelConfig {
    ModelConfig {
        epochs: EPOCHS,
        seed: WORLD_SEED,
        ..ModelConfig::default()
    }
}

/// Where one set-up's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub bootstrap_ms: f64,
    pub snapshot_save_ms: f64,
    pub snapshot_load_ms: f64,
    pub bind_ms: f64,
}

/// A served world and its oracle.
pub struct Served {
    pub live: Arc<LiveWorld>,
    pub server: GenieServer,
    /// An in-process engine loaded from the served model's snapshot.
    pub oracle: GenieEngine,
    pub snapshot: PathBuf,
    pub times: SetupTimes,
}

/// Bootstrap a durable world cold in `dir`, save its snapshot and load the
/// oracle from it, and bind the server: everything before the first
/// request can be sent.
pub fn set_up(dir: &Path, library: Thingpedia) -> genie::GenieResult<Served> {
    let start = Instant::now();
    let (live, recovery) =
        LiveWorld::open_durable(dir, library, pipeline_config(0), model_config())?;
    assert!(
        !recovery.recovered_from_bundle && recovery.version == 1,
        "set-up must bootstrap cold in a fresh directory"
    );
    let live = Arc::new(live);
    let bootstrap_ms = ms(start);

    let save = Instant::now();
    let snapshot = dir.join("model.snapshot");
    luinet::snapshot::save(&live.engine().model(), &snapshot)?;
    let snapshot_save_ms = ms(save);

    let load = Instant::now();
    let oracle = EngineBuilder::new()
        .thingpedia_shared(live.library())
        .model_from_snapshot(&snapshot)?
        .build()?;
    let snapshot_load_ms = ms(load);

    let bind = Instant::now();
    let config = ServerConfig::builder()
        .worker_threads(SERVER_THREADS)
        .build()?;
    let server = GenieServer::bind_live(live.clone(), config)?;
    let bind_ms = ms(bind);
    Ok(Served {
        live,
        server,
        oracle,
        snapshot,
        times: SetupTimes {
            total_s: start.elapsed().as_secs_f64(),
            bootstrap_ms,
            snapshot_save_ms,
            snapshot_load_ms,
            bind_ms,
        },
    })
}

/// A cold synthesis + training pass over one library.
#[derive(Debug, Clone)]
pub struct ColdBuild {
    pub synth_ms: f64,
    pub train_ms: f64,
    pub stats: StreamStats,
    pub digest: u64,
}

/// Synthesize the training stream for `library` into a fresh snapshot
/// arena, exactly as a live world's full rebuild does.
pub fn synthesize(
    library: &Thingpedia,
    threads: usize,
) -> genie::GenieResult<(Vec<luinet::ParserExample>, StreamStats)> {
    let arena = genie_templates::intern::fresh(library, &ParamDatasets::builtin());
    let pipeline = DataPipeline::with_interner(library, pipeline_config(threads), arena);
    let mut examples = Vec::new();
    let stats = pipeline.run_streaming_observed(NnOptions::default(), None, None, |example| {
        examples.push(example)
    })?;
    Ok((examples, stats))
}

/// Replay a full rebuild of `library` outside the server: synthesis, then
/// training from scratch. Its weights digest must equal the live world's.
pub fn cold_build(library: &Thingpedia) -> genie::GenieResult<ColdBuild> {
    let synth = Instant::now();
    let (examples, stats) = synthesize(library, 0)?;
    let synth_ms = ms(synth);
    let train = Instant::now();
    let mut parser = LuinetParser::new(model_config());
    parser.train(&examples);
    let train_ms = ms(train);
    Ok(ColdBuild {
        synth_ms,
        train_ms,
        stats,
        digest: parser.weights_digest(),
    })
}
