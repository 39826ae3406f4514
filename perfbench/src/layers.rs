//! Per-layer metrics of the traced run. Every number is timed or counted
//! from outside, around a layer's public call: a sample of the run's
//! requests is replayed from its captured wire bytes through the server's
//! codec, API and engine functions, with `GenieEngine::parse` decomposed
//! into tokenize → decode → typecheck.

use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use genie::engine::{EngineBuilder, DEFAULT_CANDIDATES};
use genie::live::{DeltaJournal, RetrainMode};
use genie_server::coalescer::Coalescer;
use genie_server::config::{DEFAULT_COALESCE_WINDOW, DEFAULT_MAX_COALESCE_BATCH};
use genie_server::json::Json;
use genie_server::metrics::Metrics;
use genie_server::{api, http};

use crate::inputs;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workload::{self, metric, Checked, Metric, Phase, Run};
use crate::world::{self, Served};

/// Requests replayed through the layer calls.
pub const SAMPLE: usize = 200;
/// tokenize + decode + typecheck must be within this share of
/// `engine.parse_us`; the rest is response assembly inside the engine.
pub const ENGINE_TOLERANCE: f64 = 0.25;
/// synth + train must be within this share of a full rebuild's reported
/// reload time; the rest is the journal append, the pool diff and the swap.
/// The replay runs seconds after the reload, and a shared 2-vCPU host's
/// speed moves by up to a quarter between such moments.
pub const RELOAD_TOLERANCE: f64 = 0.5;

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Time `call` `n` times and return the median, ms.
fn median_ms(n: usize, mut call: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            call();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

/// Mean self time per span of `name`, µs.
fn self_us(by_name: &std::collections::BTreeMap<&'static str, (u64, usize)>, name: &str) -> f64 {
    by_name
        .get(name)
        .map_or(0.0, |(ns, count)| *ns as f64 / 1e3 / (*count).max(1) as f64)
}

/// Replay the sampled requests, recording their metrics and any problem.
fn replay_requests(
    run: &Run,
    served: &Served,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
    problems: &mut Vec<String>,
) {
    let fixed: Vec<&workload::Sent> = run
        .sent
        .iter()
        .filter(|s| s.phase == Phase::Fixed && !s.record.failed())
        .collect();
    let stride = (fixed.len() / SAMPLE).max(1);
    let sample: Vec<&workload::Sent> = fixed.iter().step_by(stride).take(SAMPLE).copied().collect();
    let engine = &served.oracle;
    let library = engine.library();
    let model = engine.model();
    let interner = genie_templates::intern::shared();

    let mut socket_us = Vec::new();
    let mut engine_us = Vec::new();
    let mut decoded = 0usize;
    let mut rejected = 0usize;
    for (id, sent) in sample.iter().enumerate() {
        let id = id as u64;
        let text = &run.utterances[sent.item].text;
        let wire = workload::parse_wire(text);
        let socket = sent
            .record
            .response
            .as_ref()
            .expect("a successful read has a response");
        let replayed = tracer.span(id, "request", None, |tracer, root| {
            let request = tracer.span(id, "http.read", Some(root), |_, _| {
                http::read_request(&mut BufReader::new(wire.as_slice()), 64 * 1024)
            });
            let Ok(Some(request)) = request else {
                return None;
            };
            let mut parse_request = tracer.span(id, "api.decode", Some(root), |_, _| {
                std::str::from_utf8(&request.body)
                    .ok()
                    .and_then(|body| Json::parse(body).ok())
                    .and_then(|json| api::parse_request_from_json(&json).ok())
            })?;
            // The served path hit the cache only on the repeat workload.
            parse_request.flags.bypass_cache = run.spec.traffic == workload::Traffic::Unique;
            let result = tracer.span(id, "engine.parse", Some(root), |_, _| {
                engine.parse(&parse_request)
            });
            let (status, reason, body) = tracer.span(id, "api.render", Some(root), |_, _| {
                api::render_result(&result)
            });
            tracer.span(id, "http.write", Some(root), |_, _| {
                let mut bytes = Vec::new();
                http::write_response(
                    &mut bytes,
                    status,
                    reason,
                    "application/json",
                    body.as_bytes(),
                    request.keep_alive,
                    &[],
                )
                .ok()
                .map(|()| bytes)
            })
        });
        if let Some(us) = sent.record.socket_us() {
            socket_us.push(us);
        }
        if replayed.as_deref() != Some(socket.wire.as_slice()) {
            problems.push(format!(
                "replayed bytes differ from the socket's for `{text}`"
            ));
        }

        // The engine, decomposed; and whole, with the cache bypassed. A
        // first untimed parse warms the CPU caches for this sentence, and
        // the two timed forms alternate which goes first, so neither is
        // the one that pays for a cold start.
        let bypass = genie::ParseRequest::new(text.as_str()).bypass_cache();
        let _ = engine.parse(&bypass);
        let whole = || {
            let start = Instant::now();
            let _ = engine.parse(&bypass);
            us(start)
        };
        if id.is_multiple_of(2) {
            engine_us.push(whole());
        }
        tracer.span(id, "engine.decomposed", None, |tracer, root| {
            let sentence = tracer.span(id, "tokenize", Some(root), |_, _| {
                let mut local = genie_nlp::LocalInterner::new(interner);
                let mut sentence = genie_nlp::TokenStream::new();
                genie_nlp::tokenize::tokenize_into(text.trim(), &mut local, &mut sentence);
                if local.has_pending() {
                    if let Some(remap) = interner.try_commit(&local.take_pending()) {
                        remap.apply(&mut sentence);
                    }
                }
                sentence
            });
            let predictions = tracer.span(id, "decode", Some(root), |_, _| {
                model.predict_topk(&sentence, DEFAULT_CANDIDATES)
            });
            tracer.span(id, "typecheck", Some(root), |_, _| {
                for prediction in &predictions {
                    decoded += 1;
                    if thingtalk::nn_syntax::from_tokens_checked(
                        library.as_ref(),
                        &prediction.tokens,
                    )
                    .is_err()
                    {
                        rejected += 1;
                    }
                }
            });
        });
        if !id.is_multiple_of(2) {
            engine_us.push(whole());
        }
    }

    let by_name = trace::self_time_by_name(tracer.spans());
    let parts = self_us(&by_name, "tokenize")
        + self_us(&by_name, "decode")
        + self_us(&by_name, "typecheck");
    let engine_parse = stats::mean(&engine_us);
    let gap = trace::gap_share(parts, engine_parse);
    println!(
        "reconcile: tokenize+decode+typecheck {parts:.1}us vs engine.parse {engine_parse:.1}us \
         (gap {gap:.3}, tolerance {ENGINE_TOLERANCE})"
    );
    if !trace::reconciles(parts, engine_parse, ENGINE_TOLERANCE) {
        problems.push(format!(
            "engine layers do not reconcile with engine.parse_us: gap {gap:.3}"
        ));
    }
    let replayed: f64 = [
        "http.read",
        "api.decode",
        "engine.parse",
        "api.render",
        "http.write",
        "request",
    ]
    .iter()
    .map(|name| self_us(&by_name, name))
    .sum();
    out.extend([
        metric("http.read_us", self_us(&by_name, "http.read"), "us"),
        metric("http.write_us", self_us(&by_name, "http.write"), "us"),
        metric("api.decode_us", self_us(&by_name, "api.decode"), "us"),
        metric("api.render_us", self_us(&by_name, "api.render"), "us"),
        metric("tokenize.us", self_us(&by_name, "tokenize"), "us"),
        metric("decode.us", self_us(&by_name, "decode"), "us"),
        metric(
            "decode.candidates",
            decoded as f64 / sample.len().max(1) as f64,
            "count",
        ),
        metric("typecheck.us", self_us(&by_name, "typecheck"), "us"),
        metric(
            "typecheck.reject_share",
            rejected as f64 / decoded.max(1) as f64,
            "share",
        ),
        metric("engine.parse_us", engine_parse, "us"),
        metric("engine.reconcile_gap", gap, "share"),
        metric("residual.us", stats::mean(&socket_us) - replayed, "us"),
    ]);

    // Coalescer wait at the server's window: submit latency minus the
    // engine's own latency for the same request.
    let coalescer = Coalescer::start(
        engine.clone(),
        DEFAULT_COALESCE_WINDOW,
        DEFAULT_MAX_COALESCE_BATCH,
        Arc::new(Metrics::default()),
    )
    .expect("spawn a coalescer");
    let mut waits = Vec::new();
    for sent in sample.iter().take(50) {
        let mut request = genie::ParseRequest::new(run.utterances[sent.item].text.as_str());
        request.flags.bypass_cache = run.spec.traffic == workload::Traffic::Unique;
        let start = Instant::now();
        let _ = engine.parse(&request);
        let parse_us = us(start);
        let start = Instant::now();
        let _ = coalescer.submit(request, Instant::now() + std::time::Duration::from_secs(30));
        waits.push(us(start) - parse_us);
    }
    coalescer.shutdown();
    out.push(metric("coalescer.wait_us", stats::median(&waits), "us"));
}

/// Every per-layer metric of a run.
pub fn per_layer(
    run: &Run,
    checked: &Checked,
    served: &Served,
    tracer: &mut Tracer,
    work: &Path,
) -> (Vec<Metric>, Vec<String>) {
    let mut out = Vec::new();
    let mut problems = Vec::new();
    replay_requests(run, served, tracer, &mut out, &mut problems);

    let text = &run.metrics_text;
    let batches = workload::scrape(text, "server_coalesce_batches_total");
    let coalesced = workload::scrape(text, "server_coalesced_requests_total");
    let engine = &run.engine;
    out.extend([
        metric(
            "coalescer.batch_mean",
            coalesced / batches.max(1.0),
            "count",
        ),
        metric(
            "admission.shed",
            workload::scrape(text, "server_shed_total"),
            "count",
        ),
        metric(
            "deadline.exceeded",
            workload::scrape(text, "server_deadline_exceeded_total"),
            "count",
        ),
        metric(
            "quota.rejections",
            workload::scrape(text, "server_quota_rejections_total"),
            "count",
        ),
        metric(
            "cache.hit_share",
            engine.cache_hits as f64 / engine.requests.max(1) as f64,
            "share",
        ),
        metric("cache.entries", run.cache_entries as f64, "count"),
        metric("intern.growth", run.intern_growth as f64, "count"),
        metric("noparse_share", checked.noparse_share, "share"),
    ]);

    // Reloads, from the swap reports; full rebuilds reconciled with their
    // synthesis + training replay.
    let reloads = &run.reloads;
    let count = reloads.len().max(1) as f64;
    let batches: u64 = reloads.iter().map(|r| r.total_batches).sum();
    let reused: u64 = reloads.iter().map(|r| r.reused_batches).sum();
    // Full rebuilds are replayed by the oracle; a run without one
    // reconciles its final cold build with its last reload instead.
    let last = reloads.len().saturating_sub(1);
    let pairs: Vec<(usize, &world::ColdBuild)> = if checked.replays.is_empty() {
        vec![(last, &checked.final_build)]
    } else {
        checked.replays.iter().map(|(i, b)| (*i, b)).collect()
    };
    let mut gaps = Vec::new();
    for (i, build) in &pairs {
        let reported_ms = reloads
            .get(*i)
            .map_or(0.0, |r| r.swap_latency_us as f64 / 1e3);
        let parts = build.synth_ms + build.train_ms;
        let gap = trace::gap_share(parts, reported_ms);
        println!(
            "reconcile: reload {i} synth {:.1}ms + train {:.1}ms vs reload.total {reported_ms:.1}ms \
             (gap {gap:.3}, tolerance {RELOAD_TOLERANCE})",
            build.synth_ms, build.train_ms
        );
        if !trace::reconciles(parts, reported_ms, RELOAD_TOLERANCE) {
            problems.push(format!(
                "reload {i}: synth + train do not reconcile with reload.total_ms: gap {gap:.3}"
            ));
        }
        gaps.push(gap);
    }
    let mean_of = |f: &dyn Fn(&world::ColdBuild) -> f64| {
        stats::mean(&pairs.iter().map(|(_, b)| f(b)).collect::<Vec<_>>())
    };
    out.extend([
        metric("reload.count", reloads.len() as f64, "count"),
        metric(
            "reload.p50_ms",
            stats::median(&reloads.iter().map(|r| r.latency_ms).collect::<Vec<_>>()),
            "ms",
        ),
        metric(
            "reload.busy_retries",
            reloads.iter().map(|r| r.busy_retries).sum::<usize>() as f64,
            "count",
        ),
        metric(
            "reload.total_ms",
            reloads
                .iter()
                .map(|r| r.swap_latency_us as f64 / 1e3)
                .sum::<f64>()
                / count,
            "ms",
        ),
        metric(
            "reload.reuse_share",
            reused as f64 / batches.max(1) as f64,
            "share",
        ),
        metric(
            "reload.full_rebuild_share",
            reloads.iter().filter(|r| r.full_rebuild).count() as f64 / count,
            "share",
        ),
        metric(
            "reload.examples",
            reloads
                .iter()
                .map(|r| r.emitted_examples as f64)
                .sum::<f64>()
                / count,
            "count",
        ),
        metric("reload.reconcile_gap", stats::mean(&gaps), "share"),
        metric("synth.ms", mean_of(&|b| b.synth_ms), "ms"),
        metric(
            "synth.dedup_keep_share",
            mean_of(&|b| {
                b.stats.synthesis.emitted as f64 / b.stats.synthesis.generated.max(1) as f64
            }),
            "share",
        ),
        metric("train.ms", mean_of(&|b| b.train_ms), "ms"),
    ]);

    // Artifacts: snapshot encode/load, journal append at the run's length,
    // bundle persist.
    let model = served.live.engine().model();
    out.push(metric(
        "snapshot.encode_ms",
        median_ms(3, || {
            std::hint::black_box(luinet::snapshot::to_bytes(&model));
        }),
        "ms",
    ));
    let loads: Vec<f64> = run.setups.iter().map(|s| s.snapshot_load_ms).collect();
    out.push(metric("snapshot.load_ms", stats::median(&loads), "ms"));
    let journal_path = work.join("probe.journal");
    let (journal, _) = DeltaJournal::open(&journal_path).expect("open a probe journal");
    let decode = |body: &str| {
        genie_server::admin::skill_delta_from_json(&Json::parse(body).expect("valid JSON"))
            .expect("a generated delta decodes")
            .0
    };
    let mut version = 1;
    for reload in reloads {
        version += 1;
        journal
            .append_delta(version, &decode(&reload.delta.body), RetrainMode::Full)
            .expect("append to the probe journal");
    }
    let bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
    let mut extra = inputs::DeltaPlan::new(run.seed);
    let appends = median_ms(5, || {
        version += 1;
        let delta = decode(&extra.next().expect("endless").body);
        journal
            .append_delta(version, &delta, RetrainMode::Full)
            .expect("append to the probe journal");
    });
    out.extend([
        metric("journal.append_ms", appends, "ms"),
        metric("journal.bytes", bytes as f64, "bytes"),
        metric(
            "bundle.persist_ms",
            median_ms(3, || {
                served.live.persist_current().expect("persist the bundle")
            }),
            "ms",
        ),
    ]);

    // Thread scaling: the synthesis stream and parse_batch at 1 and 2
    // threads.
    let library = served.live.library();
    let synth_at = |threads: usize| {
        median_ms(1, || {
            world::synthesize(&library, threads).expect("synthesize");
        })
    };
    let (synth_1t, synth_2t) = (synth_at(1), synth_at(2));
    let batch: Vec<genie::ParseRequest> = run
        .sent
        .iter()
        .filter(|s| s.phase == Phase::Fixed)
        .take(SAMPLE)
        .map(|s| genie::ParseRequest::new(run.utterances[s.item].text.as_str()).bypass_cache())
        .collect();
    let batch_at = |threads: usize| {
        let engine = EngineBuilder::new()
            .thingpedia_shared(served.oracle.library())
            .model_from_snapshot(&served.snapshot)
            .and_then(|b| b.threads(threads).build())
            .expect("an engine from the snapshot");
        median_ms(3, || {
            std::hint::black_box(engine.parse_batch(&batch));
        })
    };
    let (batch_1t, batch_2t) = (batch_at(1), batch_at(2));
    println!(
        "threads: available {}; synthesis {synth_1t:.1}ms at 1, {synth_2t:.1}ms at 2; \
         parse_batch of {} {batch_1t:.1}ms at 1, {batch_2t:.1}ms at 2",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        batch.len()
    );
    out.extend([
        metric("par.synth_1t_ms", synth_1t, "ms"),
        metric("par.synth_2t_ms", synth_2t, "ms"),
        metric("par.synth_speedup_2t", synth_1t / synth_2t, "x"),
        metric("par.parse_batch_1t_ms", batch_1t, "ms"),
        metric("par.parse_batch_2t_ms", batch_2t, "ms"),
        metric("par.parse_batch_speedup_2t", batch_1t / batch_2t, "x"),
    ]);

    // Tracing overhead: the traced run's own end-to-end p50 (compare with
    // the untraced runs' p50_ms), and what recording one span costs.
    let mut probe = Tracer::new();
    let start = Instant::now();
    for i in 0..10_000 {
        probe.span(i, "probe", None, |_, _| ());
    }
    out.extend([
        metric(
            "latency.p75_ms",
            workload::block_median(run, |s| s.p75).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "latency.p90_ms",
            run.fixed.latency.and_then(|s| s.p90).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "latency.p99_ms",
            run.fixed.latency.map_or(0.0, |s| s.tail),
            "ms",
        ),
        metric(
            "trace.p50_ms",
            workload::block_median(run, |s| Some(s.p50)).unwrap_or(0.0),
            "ms",
        ),
        metric("trace.span_cost_us", us(start) / 10_000.0, "us"),
    ]);
    (out, problems)
}
