//! Crowdsource task generation (§3.2).
//!
//! Genie "automates the process of crowdsourcing paraphrases": it samples
//! synthesized sentences, groups them into Mechanical Turk HITs (each worker
//! sees several sentences and provides two paraphrases per sentence), and
//! validates the returned answers. This module produces the batch structure
//! and applies the same pairing strategy the paper describes: compound
//! sentences should combine easy-to-understand functions with difficult
//! ones, and unrelated functions should not be combined.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use thingtalk::typecheck::SchemaRegistry;

use crate::dataset::Example;

/// One crowdsource task: a synthesized sentence shown to `assignments`
/// distinct workers, each asked for `paraphrases_per_worker` paraphrases.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdTask {
    /// The synthesized sentence the worker sees.
    pub sentence: String,
    /// The program the sentence denotes (kept for annotation, not shown to
    /// the worker).
    pub program: String,
    /// Whether every function in the program is marked easy to understand.
    pub easy: bool,
}

/// A batch of crowdsource tasks (one MTurk HIT group).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CrowdBatch {
    /// The tasks in the batch.
    pub tasks: Vec<CrowdTask>,
    /// How many workers see each sentence.
    pub assignments: usize,
    /// How many paraphrases each worker must provide per sentence (the
    /// paper uses two).
    pub paraphrases_per_worker: usize,
}

impl CrowdBatch {
    /// Total number of paraphrases the batch will collect if all workers
    /// respond.
    pub fn expected_paraphrases(&self) -> usize {
        self.tasks.len() * self.assignments * self.paraphrases_per_worker
    }

    /// Render the batch as a CSV file suitable for upload (one row per
    /// task), as Genie produces for the MTurk platform.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("sentence,program\n");
        for task in &self.tasks {
            out.push_str(&format!(
                "\"{}\",\"{}\"\n",
                task.sentence.replace('"', "'"),
                task.program.replace('"', "'")
            ));
        }
        out
    }
}

/// Select synthesized sentences for paraphrasing and group them into a
/// batch. Developers "can control the subset of templates to paraphrase as
/// well as their sampling rates"; here the knobs are the sample size and
/// whether hard-to-understand functions are admitted on their own.
pub fn build_batch<R: SchemaRegistry + ?Sized>(
    registry: &R,
    examples: &[Example],
    sample_size: usize,
    seed: u64,
) -> CrowdBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<&Example> = examples
        .iter()
        .filter(|e| {
            let easy_count = e
                .program
                .functions()
                .iter()
                .filter(|f| {
                    registry
                        .function(&f.class, &f.function)
                        .map(|def| def.easy_to_understand)
                        .unwrap_or(true)
                })
                .count();
            // Compound sentences must contain at least one easy function so
            // workers can anchor their understanding.
            easy_count >= 1
        })
        .collect();
    candidates.shuffle(&mut rng);
    let tasks = candidates
        .into_iter()
        .take(sample_size)
        .map(|example| {
            let easy = example.program.functions().iter().all(|f| {
                registry
                    .function(&f.class, &f.function)
                    .map(|def| def.easy_to_understand)
                    .unwrap_or(true)
            });
            CrowdTask {
                sentence: example.text(),
                program: example.program.to_string(),
                easy,
            }
        })
        .collect();
    CrowdBatch {
        tasks,
        assignments: 3,
        paraphrases_per_worker: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ExampleSource;
    use thingpedia::Thingpedia;
    use thingtalk::syntax::parse_program;

    fn examples() -> Vec<Example> {
        vec![
            Example::new(
                "show me my emails",
                parse_program("now => @com.gmail.inbox() => notify").unwrap(),
                ExampleSource::Synthesized,
            ),
            Example::new(
                "tweet good morning",
                parse_program("now => @com.twitter.post(status = \"good morning\")").unwrap(),
                ExampleSource::Synthesized,
            ),
            Example::new(
                "when i get an email , post it on slack",
                parse_program(
                    "monitor (@com.gmail.inbox()) => @com.slack.send(channel = \"#a\"^^tt:slack_channel, message = snippet)",
                )
                .unwrap(),
                ExampleSource::Synthesized,
            ),
        ]
    }

    #[test]
    fn batch_selects_and_counts() {
        let library = Thingpedia::builtin();
        let batch = build_batch(&library, &examples(), 2, 1);
        assert_eq!(batch.tasks.len(), 2);
        assert_eq!(batch.assignments, 3);
        assert_eq!(batch.paraphrases_per_worker, 2);
        assert_eq!(batch.expected_paraphrases(), 12);
    }

    #[test]
    fn csv_has_one_row_per_task_plus_header() {
        let library = Thingpedia::builtin();
        let batch = build_batch(&library, &examples(), 3, 2);
        let csv = batch.to_csv();
        assert_eq!(csv.lines().count(), batch.tasks.len() + 1);
        assert!(csv.starts_with("sentence,program"));
    }

    #[test]
    fn sampling_is_deterministic() {
        let library = Thingpedia::builtin();
        let a = build_batch(&library, &examples(), 2, 7);
        let b = build_batch(&library, &examples(), 2, 7);
        assert_eq!(a, b);
    }
}
