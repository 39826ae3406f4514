//! The repository benchmark: open-loop parse serving and live skill
//! reloads against a real `genie-server`, end to end and per layer.
//!
//! ```text
//! perfbench --workload <parse-unique|parse-repeat> --seed <n> --seconds <s>
//!           --trace <0|1>
//! ```
//!
//! One run is one process (peak RSS is process-wide). It prints per-phase
//! self-checks, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. It exits non-zero
//! when any read, reload or digest fails the oracle. See README.md.

mod inputs;
mod layers;
mod load;
mod search;
mod stats;
mod trace;
mod workload;
mod world;

use std::path::PathBuf;

use workload::{Metric, SPECS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Scratch space for one run, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { -1.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = *SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or(format!("unknown workload `{}`", args.workload))?;
    let work = WorkDir(PathBuf::from(".perfbench").join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create the work directory: {e}"))?;

    let (run, served) = workload::drive(spec, args.seed, args.seconds, &work.0)?;
    let mut tracer = trace::Tracer::new();
    let checked = workload::check(&run, &served);
    let mut problems = checked.problems.clone();
    let metrics = if args.trace {
        let (metrics, layer_problems) =
            layers::per_layer(&run, &checked, &served, &mut tracer, &work.0);
        problems.extend(layer_problems);
        let dir = PathBuf::from(".perfbench").join("trace");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create the trace directory: {e}"))?;
        let path = dir.join(format!("{}-seed{}.jsonl", spec.name, args.seed));
        let mut file =
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        tracer
            .write_jsonl(&mut file)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        metrics
    } else {
        workload::end_to_end(&run, &checked)?
    };
    drop(served);
    for problem in &problems {
        println!("problem: {problem}");
    }
    let correct = problems.is_empty() && checked.failed == 0;
    println!(
        "{}",
        result_line(correct, checked.attempted, checked.failed, &metrics)
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    }
}
