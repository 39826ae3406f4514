//! Support library for the experiment binaries and Criterion benches:
//! command-line scale parsing, fixed-width table printing (so every binary
//! prints its figure/table in a consistent format recorded in
//! EXPERIMENTS.md), the process-level perf probes behind
//! `BENCH_synthesis.json`, and the one socket client the serving benches
//! and the socket integration tests share.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use genie::experiments::ExperimentScale;
use genie::pipeline::PipelineConfig;
use genie_server::http::{self, HttpError, Response};

/// Parse the experiment scale from the command line.
///
/// Supported flags: `--tiny` (CI-sized), `--scale N` (multiply the standard
/// data sizes by `N`), `--seeds N` (number of training runs per
/// configuration), and the streaming-synthesis knobs `--threads N`,
/// `--shards N`, `--batch-size N` (threads and shards never change the
/// dataset; the batch size selects the per-batch RNG streams).
pub fn scale_from_args() -> ExperimentScale {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = ExperimentScale::standard();
    if args.iter().any(|a| a == "--tiny") {
        scale = ExperimentScale::tiny();
    }
    if let Some(factor) = flag_value(&args, "--scale") {
        scale = scale.scaled_by(factor);
    }
    if let Some(seeds) = flag_value(&args, "--seeds") {
        scale.seeds = seeds.max(1);
    }
    if let Some(threads) = flag_value(&args, "--threads") {
        scale.threads = threads;
    }
    if let Some(shards) = flag_value(&args, "--shards") {
        scale.shards = shards;
    }
    if let Some(batch) = flag_value(&args, "--batch-size") {
        scale.batch_size = batch;
    }
    scale
}

/// The value following `flag` in `args`, parsed as `usize`.
pub fn flag_value(args: &[String], flag: &str) -> Option<usize> {
    let position = args.iter().position(|a| a == flag)?;
    args.get(position + 1)?.parse().ok()
}

/// The shared training workload of the training bench, the
/// `training_digest` CI bin and the determinism tests: a fixed-seed
/// pipeline build converted to parser examples. `target_per_rule` 20 with
/// `paraphrase_sample` 80 is the smoke size (~670 examples) the committed
/// `BENCH_training.json` baseline was measured on.
pub fn training_workload(
    target_per_rule: usize,
    paraphrase_sample: usize,
) -> Vec<luinet::ParserExample> {
    use genie::pipeline::{DataPipeline, NnOptions, PipelineConfig};

    let library = thingpedia::Thingpedia::builtin();
    let synthesis = genie_templates::GeneratorConfig::builder()
        .target_per_rule(target_per_rule)
        .max_depth(5)
        .instantiations_per_template(1)
        .seed(5)
        .include_aggregation(false)
        .include_timers(true)
        .threads(0)
        .quiet(true)
        .build()
        .expect("valid synthesis config");
    let config = PipelineConfig::builder()
        .synthesis(synthesis)
        .paraphrase_sample(paraphrase_sample)
        .seed(5)
        .build()
        .expect("valid pipeline config");
    let pipeline = DataPipeline::new(&library, config);
    let data = pipeline.build().expect("builtin pipeline builds");
    pipeline.to_parser_examples(&data.combined(), NnOptions::default())
}

/// The CPUs available to this process (`1` when the count cannot be
/// determined). The synthesis bench uses this to skip the parallel-vs-
/// sequential speedup comparison on single-CPU hosts, where thread overhead
/// makes the ratio meaningless.
pub fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process' peak resident-set size ("VmHWM") in kilobytes, from
/// `/proc/self/status`. `None` off Linux or if the field is missing — the
/// bench reports then omit the memory column rather than guessing.
pub fn peak_rss_kb() -> Option<u64> {
    proc_status_kb("VmHWM:")
}

/// The process' current resident-set size ("VmRSS") in kilobytes.
pub fn current_rss_kb() -> Option<u64> {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Render a flat list of key/value pairs as a JSON object string. Values
/// are emitted verbatim, so callers pass pre-rendered JSON (numbers,
/// strings quoted with [`genie_server::json::escape`], nested objects).
/// The reports are flat, fixed-key records, so string assembly is all the
/// emitter they need; reading them back goes through
/// [`genie_server::json::Json`].
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Largest response body the shared client accepts.
pub const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// How long the shared client waits for a response before giving up with
/// a typed timeout instead of hanging the caller.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(300);

/// Connect to `addr`, send `wire` verbatim, and read one response through
/// the server's own codec ([`http::read_response`]). Callers probing with
/// deliberately malformed bytes use this directly; well-formed requests
/// go through [`request`].
pub fn send(addr: SocketAddr, wire: &[u8]) -> Result<Response, HttpError> {
    let mut stream = TcpStream::connect(addr).map_err(HttpError::Io)?;
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(HttpError::Io)?;
    stream.write_all(wire).map_err(HttpError::Io)?;
    http::read_response(&mut BufReader::new(stream), MAX_RESPONSE_BYTES)
}

/// One `Connection: close` request on a fresh connection, framed by
/// [`http::write_request`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Response, HttpError> {
    let mut wire = Vec::new();
    http::write_request(&mut wire, method, path, body.as_bytes(), false).map_err(HttpError::Io)?;
    send(addr, &wire)
}

/// The `POST /v1/parse` body for `utterance`.
pub fn parse_body(utterance: &str) -> String {
    format!(
        "{{\"utterance\": {}}}",
        genie_server::json::escape(utterance)
    )
}

/// The value of the `/metrics` line named exactly `name`.
///
/// # Panics
///
/// When no such line exists, printing the whole scrape.
pub fn metric(metrics_text: &str, name: &str) -> u64 {
    metrics_text
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(' ')?;
            if key == name {
                value.trim().parse().ok()
            } else {
                None
            }
        })
        .unwrap_or_else(|| panic!("metric `{name}` missing from:\n{metrics_text}"))
}

/// The `q`-quantile of an ascending slice by nearest rank (`0.0` when
/// empty). The rounding is the one every committed `BENCH_*.json` latency
/// was computed with.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The first `n` distinct commands `config` streams over the builtin
/// library — the training-distribution utterances the serving benches
/// replay.
pub fn training_commands(config: &PipelineConfig, n: usize) -> Vec<String> {
    let library = thingpedia::Thingpedia::builtin();
    let mut commands: Vec<String> = Vec::with_capacity(n);
    genie::DataPipeline::new(&library, *config)
        .run_streaming(genie::NnOptions::default(), |example| {
            if commands.len() < n {
                commands.push(example.sentence_text());
            }
        })
        .expect("builtin pipeline streams");
    commands
}

/// Render a percentage with one decimal.
pub fn pct(value: f64) -> String {
    format!("{:5.1}%", value * 100.0)
}

/// Render an accuracy summary as `mean ± half-range` percentages.
pub fn pct_range(summary: &genie::eval::AccuracySummary) -> String {
    format!(
        "{:5.1} ± {:4.1}",
        summary.mean * 100.0,
        summary.half_range() * 100.0
    )
}

/// Print a fixed-width table: a header row followed by data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", render(header.iter().map(|s| s.to_string()).collect()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", render(row.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie::eval::AccuracySummary;

    #[test]
    fn percentage_formatting() {
        assert_eq!(pct(0.625), " 62.5%");
        let summary = AccuracySummary::of(&[0.6, 0.64]);
        assert!(pct_range(&summary).contains("62.0"));
    }

    #[test]
    fn flag_parsing() {
        let args = vec![
            "bin".to_owned(),
            "--scale".to_owned(),
            "3".to_owned(),
            "--seeds".to_owned(),
            "2".to_owned(),
        ];
        assert_eq!(flag_value(&args, "--scale"), Some(3));
        assert_eq!(flag_value(&args, "--seeds"), Some(2));
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn json_emission_round_trips_through_the_server_parser() {
        use genie_server::json::{escape, Json};
        let object = json_object(&[
            ("count", "3".to_owned()),
            ("rate", "125.5".to_owned()),
            ("label", escape("a, \"b\"} c\n")),
            ("workers", "[{\"n\": 1}, {\"n\": 2}]".to_owned()),
        ]);
        assert_eq!(
            object,
            "{\"count\": 3, \"rate\": 125.5, \"label\": \"a, \\\"b\\\"} c\\n\", \
             \"workers\": [{\"n\": 1}, {\"n\": 2}]}"
        );
        let parsed = Json::parse(&object).unwrap();
        assert_eq!(parsed.get("rate").and_then(Json::as_f64), Some(125.5));
        assert_eq!(
            parsed.get("label").and_then(Json::as_str),
            Some("a, \"b\"} c\n")
        );
        assert_eq!(
            parsed
                .get("workers")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn quantile_rounds_to_the_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&sorted, 0.5), 3.0);
        assert_eq!(quantile(&sorted, 0.99), 5.0);
        assert_eq!(quantile(&sorted, 0.6), 3.0);
        assert_eq!(quantile(&sorted[..4], 0.5), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_matches_whole_names_only() {
        let text = "server_replication_lag_max 9\nserver_replication_lag 2\n";
        assert_eq!(metric(text, "server_replication_lag"), 2);
        assert_eq!(metric(text, "server_replication_lag_max"), 9);
    }

    #[test]
    fn cpu_count_is_positive() {
        assert!(available_cpus() >= 1);
    }

    #[test]
    fn rss_probes_report_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().unwrap_or(0) > 0);
            assert!(current_rss_kb().unwrap_or(0) > 0);
        }
    }
}
