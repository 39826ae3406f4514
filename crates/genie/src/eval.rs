//! Evaluation metrics and error analysis (§5, §5.5).
//!
//! The paper's primary metric is *program accuracy*: the output is correct
//! only if it has the right functions, parameters, joins and filters — i.e.
//! it matches the canonicalized gold program exactly. The error analysis
//! additionally reports how often the output is syntactically valid and
//! type-correct, identifies primitive vs. compound correctly, names the
//! right skills, and names the right functions.

use thingtalk::canonical::canonicalized;
use thingtalk::nn_syntax::from_tokens;
use thingtalk::typecheck::{typecheck, SchemaRegistry};

use crate::dataset::Example;

/// Aggregate evaluation metrics over a test set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalResult {
    /// Number of evaluated sentences.
    pub count: usize,
    /// Exact-match program accuracy.
    pub program_accuracy: f64,
    /// The output uses exactly the right set of functions.
    pub function_accuracy: f64,
    /// The output uses exactly the right set of skills (devices).
    pub device_accuracy: f64,
    /// The output correctly identifies primitive vs. compound.
    pub primitive_compound_accuracy: f64,
    /// The output parses as a syntactically valid program.
    pub syntax_correct: f64,
    /// The output parses and typechecks against the library.
    pub type_correct: f64,
}

impl EvalResult {
    fn normalize(mut self) -> Self {
        let n = self.count.max(1) as f64;
        self.program_accuracy /= n;
        self.function_accuracy /= n;
        self.device_accuracy /= n;
        self.primitive_compound_accuracy /= n;
        self.syntax_correct /= n;
        self.type_correct /= n;
        self
    }
}

/// Evaluate predicted token sequences against gold examples.
///
/// `gold_tokens[i]` must be the canonical gold token sequence for
/// `examples[i]` (as produced by `DataPipeline::gold_tokens`), and
/// `predictions[i]` the model output for the same sentence.
pub fn evaluate<R: SchemaRegistry + ?Sized>(
    registry: &R,
    examples: &[Example],
    gold_tokens: &[Vec<String>],
    predictions: &[Vec<String>],
) -> EvalResult {
    assert_eq!(examples.len(), gold_tokens.len());
    assert_eq!(examples.len(), predictions.len());
    let mut result = EvalResult {
        count: examples.len(),
        ..EvalResult::default()
    };
    for ((example, gold), predicted) in examples.iter().zip(gold_tokens).zip(predictions) {
        let exact = predicted == gold;
        let parsed = from_tokens(predicted).ok();
        let mut program_correct = exact;
        if let Some(parsed) = &parsed {
            result.syntax_correct += 1.0;
            if typecheck(registry, parsed).is_ok() {
                result.type_correct += 1.0;
            }
            let gold_canonical = canonicalized(registry, &example.program);
            let predicted_canonical = canonicalized(registry, parsed);
            if predicted_canonical == gold_canonical {
                program_correct = true;
            }
            // Function / device / primitive-vs-compound accuracy.
            let mut gold_functions: Vec<String> = example
                .program
                .functions()
                .iter()
                .map(|f| f.to_string())
                .collect();
            gold_functions.sort();
            let mut predicted_functions: Vec<String> =
                parsed.functions().iter().map(|f| f.to_string()).collect();
            predicted_functions.sort();
            if gold_functions == predicted_functions {
                result.function_accuracy += 1.0;
            }
            let mut gold_devices: Vec<&str> = example.program.devices();
            gold_devices.sort_unstable();
            let mut predicted_devices: Vec<&str> = parsed.devices();
            predicted_devices.sort_unstable();
            if gold_devices == predicted_devices {
                result.device_accuracy += 1.0;
            }
            if parsed.is_compound() == example.program.is_compound() {
                result.primitive_compound_accuracy += 1.0;
            }
        } else if exact {
            // Token-exact but not decodable (e.g. the positional-parameter
            // ablation): count structure metrics as correct too.
            result.syntax_correct += 1.0;
            result.type_correct += 1.0;
            result.function_accuracy += 1.0;
            result.device_accuracy += 1.0;
            result.primitive_compound_accuracy += 1.0;
        }
        if program_correct {
            result.program_accuracy += 1.0;
        }
    }
    result.normalize()
}

/// Mean, minimum and maximum of a set of accuracy values, used for the error
/// bars of Fig. 8 / Fig. 9 and the ± column of Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccuracySummary {
    /// Mean accuracy.
    pub mean: f64,
    /// Minimum over runs.
    pub min: f64,
    /// Maximum over runs.
    pub max: f64,
}

impl AccuracySummary {
    /// Summarize a list of per-run accuracies.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return AccuracySummary::default();
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        AccuracySummary { mean, min, max }
    }

    /// Half the range, the ± value reported in Table 3.
    pub fn half_range(&self) -> f64 {
        (self.max - self.min) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ExampleSource;
    use thingpedia::Thingpedia;
    use thingtalk::nn_syntax::{to_tokens, NnSyntaxOptions};
    use thingtalk::syntax::parse_program;

    fn example(source: &str) -> (Example, Vec<String>) {
        let program = parse_program(source).unwrap();
        let library = Thingpedia::builtin();
        let canonical = canonicalized(&library, &program);
        let tokens = to_tokens(&canonical, NnSyntaxOptions::default());
        (
            Example::new("test sentence", program, ExampleSource::Evaluation),
            tokens,
        )
    }

    #[test]
    fn perfect_predictions_score_one() {
        let library = Thingpedia::builtin();
        let (e1, g1) = example("now => @com.gmail.inbox() => notify");
        let (e2, g2) = example("monitor (@com.twitter.timeline()) => notify");
        let result = evaluate(&library, &[e1, e2], &[g1.clone(), g2.clone()], &[g1, g2]);
        assert_eq!(result.count, 2);
        assert!((result.program_accuracy - 1.0).abs() < 1e-9);
        assert!((result.function_accuracy - 1.0).abs() < 1e-9);
        assert!((result.syntax_correct - 1.0).abs() < 1e-9);
        assert!((result.type_correct - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_function_fails_program_but_counts_syntax() {
        let library = Thingpedia::builtin();
        let (e1, g1) = example("now => @com.gmail.inbox() => notify");
        let (_, wrong) = example("now => @com.twitter.timeline() => notify");
        let result = evaluate(&library, &[e1], &[g1], &[wrong]);
        assert_eq!(result.program_accuracy, 0.0);
        assert_eq!(result.function_accuracy, 0.0);
        assert_eq!(result.syntax_correct, 1.0);
        assert_eq!(result.primitive_compound_accuracy, 1.0);
    }

    #[test]
    fn garbage_output_fails_everything() {
        let library = Thingpedia::builtin();
        let (e1, g1) = example("now => @com.gmail.inbox() => notify");
        let garbage = vec!["now".to_owned(), "=>".to_owned()];
        let result = evaluate(&library, &[e1], &[g1], &[garbage]);
        assert_eq!(result.program_accuracy, 0.0);
        assert_eq!(result.syntax_correct, 0.0);
        assert_eq!(result.function_accuracy, 0.0);
    }

    #[test]
    fn canonically_equivalent_predictions_count_as_correct() {
        let library = Thingpedia::builtin();
        let gold_program = parse_program(
            "now => @com.facebook.post_picture(caption = \"funny cat\", picture_url = \"https://x.example/c.jpg\")",
        )
        .unwrap();
        let gold_canonical = canonicalized(&library, &gold_program);
        let gold_tokens = to_tokens(&gold_canonical, NnSyntaxOptions::default());
        // Prediction has the parameters in the opposite order.
        let predicted_program = parse_program(
            "now => @com.facebook.post_picture(picture_url = \"https://x.example/c.jpg\", caption = \"funny cat\")",
        )
        .unwrap();
        let predicted_tokens = to_tokens(&predicted_program, NnSyntaxOptions::default());
        let e = Example::new(
            "post the funny cat picture",
            gold_program,
            ExampleSource::Evaluation,
        );
        let result = evaluate(&library, &[e], &[gold_tokens], &[predicted_tokens]);
        assert!((result.program_accuracy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_summary_statistics() {
        let summary = AccuracySummary::of(&[0.6, 0.62, 0.58]);
        assert!((summary.mean - 0.6).abs() < 1e-9);
        assert!((summary.half_range() - 0.02).abs() < 1e-9);
        assert_eq!(AccuracySummary::of(&[]), AccuracySummary::default());
    }
}
