//! Reusable experiment runners that regenerate every table and figure of the
//! paper's evaluation (§5 and §6). The `genie-bench` binaries call these
//! with the default scale and print the results; the integration tests call
//! them with [`ExperimentScale::tiny`] to keep CI fast.

use genie_templates::{construct_template_counts, GeneratorConfig};
use luinet::{BaselineParser, LuinetParser, ModelConfig, ParserExample};
use thingpedia::Thingpedia;

use crate::dataset::{Composition, Dataset};
use crate::error::GenieResult;
use crate::eval::{evaluate, AccuracySummary, EvalResult};
use crate::evaldata::{
    aggregation_cheatsheet_data, cheatsheet_data, developer_data, ifttt_data, EvalDataConfig,
};
use crate::paraphrase::{ParaphraseConfig, ParaphraseSimulator};
use crate::pipeline::{DataPipeline, NnOptions, PipelineConfig, TrainingStrategy};

/// Knobs that scale every experiment from CI-sized to paper-sized runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Template-synthesis samples per construct rule.
    pub target_per_rule: usize,
    /// How many synthesized sentences are paraphrased.
    pub paraphrase_sample: usize,
    /// Training epochs of the parser.
    pub epochs: usize,
    /// Independently seeded training runs (the paper uses 3).
    pub seeds: usize,
    /// Size of each realistic evaluation set.
    pub eval_size: usize,
    /// Synthesis worker threads (`0` = all cores; never changes output).
    pub threads: usize,
    /// Synthesis dedup shards (`0` = 1; never changes output).
    pub shards: usize,
    /// Synthesis streaming batch size (`0` = one batch per rule; part of
    /// the dataset identity).
    pub batch_size: usize,
}

impl ExperimentScale {
    /// The default scale used by the benchmark binaries: minutes of CPU
    /// time, large enough for the qualitative trends to be stable.
    pub fn standard() -> Self {
        ExperimentScale {
            target_per_rule: 120,
            paraphrase_sample: 500,
            epochs: 3,
            seeds: 3,
            eval_size: 150,
            threads: 0,
            shards: 8,
            batch_size: 64,
        }
    }

    /// A tiny scale for tests.
    pub fn tiny() -> Self {
        ExperimentScale {
            target_per_rule: 10,
            paraphrase_sample: 40,
            epochs: 1,
            seeds: 1,
            eval_size: 25,
            threads: 0,
            shards: 8,
            batch_size: 64,
        }
    }

    /// Multiply the data-related knobs by a factor (`--scale` flag of the
    /// binaries).
    pub fn scaled_by(mut self, factor: usize) -> Self {
        let factor = factor.max(1);
        self.target_per_rule *= factor;
        self.paraphrase_sample *= factor;
        self.eval_size *= factor;
        self
    }

    fn pipeline_config(&self, seed: u64, aggregation: bool) -> GenieResult<PipelineConfig> {
        let synthesis = GeneratorConfig::builder()
            .target_per_rule(self.target_per_rule)
            .max_depth(5)
            .instantiations_per_template(2)
            .seed(seed)
            .include_aggregation(aggregation)
            .include_timers(true)
            .threads(self.threads)
            .shards(self.shards)
            .batch_size(self.batch_size)
            .build()?;
        let paraphrase = ParaphraseConfig::builder()
            .per_sentence(2)
            .error_rate(0.08)
            .seed(seed)
            .build()?;
        Ok(PipelineConfig::builder()
            .synthesis(synthesis)
            .paraphrase(paraphrase)
            .paraphrase_sample(self.paraphrase_sample)
            .expansion_paraphrase(3)
            .expansion_synthesized(1)
            .parameter_expansion(true)
            .seed(seed)
            .build()?)
    }
}

/// The four test sets of Fig. 8.
#[derive(Debug, Clone)]
pub struct TestSets {
    /// Paraphrases of programs not seen in training (the paraphrase test).
    pub paraphrase: Dataset,
    /// The realistic validation set (developer data).
    pub validation: Dataset,
    /// Cheatsheet test data.
    pub cheatsheet: Dataset,
    /// IFTTT test data.
    pub ifttt: Dataset,
}

/// Build the four test sets with seeds disjoint from training.
pub fn build_test_sets(library: &Thingpedia, scale: ExperimentScale) -> TestSets {
    let eval_config = EvalDataConfig {
        size: scale.eval_size,
        seed: 987_654,
    };
    let validation = developer_data(library, eval_config);
    let cheatsheet = cheatsheet_data(library, eval_config);
    let ifttt = ifttt_data(
        library,
        EvalDataConfig {
            size: (scale.eval_size / 2).max(10),
            seed: 987_654,
        },
    );
    // Paraphrase test: paraphrases of a *held-out* synthesis (different seed
    // than training), so the function combinations differ from training.
    let held_out = developer_data(
        library,
        EvalDataConfig {
            size: scale.eval_size,
            seed: 555_111,
        },
    );
    let simulator = ParaphraseSimulator::new(ParaphraseConfig {
        per_sentence: 1,
        error_rate: 0.0,
        seed: 31,
    });
    let paraphrase = Dataset::from_examples(simulator.paraphrase_all(&held_out.examples));
    TestSets {
        paraphrase,
        validation,
        cheatsheet,
        ifttt,
    }
}

/// Train one parser under a strategy and evaluate it on a list of test sets,
/// returning the program accuracy per test set.
#[allow(clippy::too_many_arguments)]
fn run_once(
    library: &Thingpedia,
    scale: ExperimentScale,
    strategy: TrainingStrategy,
    options: NnOptions,
    use_pretrained_lm: bool,
    parameter_expansion: bool,
    seed: u64,
    test_sets: &[(&str, &Dataset)],
) -> GenieResult<Vec<(String, EvalResult)>> {
    let mut config = scale.pipeline_config(seed, false)?;
    config.parameter_expansion = parameter_expansion;
    let pipeline = DataPipeline::new(library, config);
    let data = pipeline.build()?;
    let training = data.for_strategy(strategy);
    let train_examples = pipeline.to_parser_examples(&training, options);

    let mut parser = LuinetParser::new(ModelConfig {
        epochs: scale.epochs,
        max_length: 48,
        lm_weight: if use_pretrained_lm { 2.0 } else { 0.0 },
        seed,
        threads: scale.threads,
        ..ModelConfig::default()
    });
    if use_pretrained_lm {
        parser = parser.with_pretrained_lm(pipeline.pretrain_lm(2));
    }
    parser.train(&train_examples);

    Ok(test_sets
        .iter()
        .map(|(name, dataset)| {
            let sentences: Vec<genie_nlp::TokenStream> = dataset
                .examples
                .iter()
                .map(|e| genie_templates::intern::shared().tokenized(&e.utterance))
                .collect();
            let gold: Vec<Vec<String>> = dataset
                .examples
                .iter()
                .map(|e| pipeline.gold_tokens(e, options))
                .collect();
            let predictions = parser.predict_batch(&sentences);
            let result = evaluate(library, &dataset.examples, &gold, &predictions);
            ((*name).to_owned(), result)
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Fig. 8 — training strategies
// ---------------------------------------------------------------------------

/// One bar group of Fig. 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Training strategy label.
    pub strategy: String,
    /// Accuracy on the paraphrase test set.
    pub paraphrase: AccuracySummary,
    /// Accuracy on the validation (developer) set.
    pub validation: AccuracySummary,
    /// Accuracy on the cheatsheet test set.
    pub cheatsheet: AccuracySummary,
    /// Accuracy on the IFTTT test set.
    pub ifttt: AccuracySummary,
}

/// Reproduce Fig. 8: train with synthesized-only, paraphrase-only, and the
/// Genie strategy, and evaluate each on the four test sets.
pub fn training_strategies(
    library: &Thingpedia,
    scale: ExperimentScale,
) -> GenieResult<Vec<Fig8Row>> {
    let test_sets = build_test_sets(library, scale);
    let sets: Vec<(&str, &Dataset)> = vec![
        ("paraphrase", &test_sets.paraphrase),
        ("validation", &test_sets.validation),
        ("cheatsheet", &test_sets.cheatsheet),
        ("ifttt", &test_sets.ifttt),
    ];
    [
        TrainingStrategy::SynthesizedOnly,
        TrainingStrategy::ParaphraseOnly,
        TrainingStrategy::Genie,
    ]
    .into_iter()
    .map(|strategy| {
        let mut per_set: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
        for seed in 0..scale.seeds {
            let results = run_once(
                library,
                scale,
                strategy,
                NnOptions::default(),
                true,
                true,
                seed as u64,
                &sets,
            )?;
            for (idx, (_, result)) in results.iter().enumerate() {
                per_set[idx].push(result.program_accuracy);
            }
        }
        Ok(Fig8Row {
            strategy: strategy.label().to_owned(),
            paraphrase: AccuracySummary::of(&per_set[0]),
            validation: AccuracySummary::of(&per_set[1]),
            cheatsheet: AccuracySummary::of(&per_set[2]),
            ifttt: AccuracySummary::of(&per_set[3]),
        })
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Table 3 — ablation study
// ---------------------------------------------------------------------------

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Row label ("Genie", "− canonicalization", …).
    pub name: String,
    /// Accuracy on the paraphrase test set.
    pub paraphrase: AccuracySummary,
    /// Accuracy on the validation set.
    pub validation: AccuracySummary,
    /// Accuracy on validation sentences whose function combination is not in
    /// training ("New Program").
    pub new_program: AccuracySummary,
}

/// Reproduce Table 3: remove one feature at a time from the Genie
/// configuration.
pub fn ablation(library: &Thingpedia, scale: ExperimentScale) -> GenieResult<Vec<Table3Row>> {
    use thingtalk::nn_syntax::NnSyntaxOptions;

    let test_sets = build_test_sets(library, scale);

    // The "new program" subset is computed against a reference synthesis
    // with the training seed, approximating which function combinations the
    // training set contains.
    let reference_pipeline = DataPipeline::new(library, scale.pipeline_config(0, false)?);
    let reference = reference_pipeline.build()?.combined();
    let (_, new_programs) = test_sets.validation.split_by_seen_programs(&reference);

    let configurations: Vec<(&str, NnOptions, bool, bool)> = vec![
        (
            "Genie",
            NnOptions {
                syntax: NnSyntaxOptions::full(),
                canonicalize: true,
            },
            true,
            true,
        ),
        (
            "- canonicalization",
            NnOptions {
                syntax: NnSyntaxOptions::full(),
                canonicalize: false,
            },
            true,
            true,
        ),
        (
            "- keyword param.",
            NnOptions {
                syntax: NnSyntaxOptions {
                    keyword_params: false,
                    type_annotations: false,
                },
                canonicalize: true,
            },
            true,
            true,
        ),
        (
            "- type annotations",
            NnOptions {
                syntax: NnSyntaxOptions::default(),
                canonicalize: true,
            },
            true,
            true,
        ),
        (
            "- param. expansion",
            NnOptions {
                syntax: NnSyntaxOptions::full(),
                canonicalize: true,
            },
            true,
            false,
        ),
        (
            "- decoder LM",
            NnOptions {
                syntax: NnSyntaxOptions::full(),
                canonicalize: true,
            },
            false,
            true,
        ),
    ];

    let sets: Vec<(&str, &Dataset)> = vec![
        ("paraphrase", &test_sets.paraphrase),
        ("validation", &test_sets.validation),
        ("new_program", &new_programs),
    ];

    configurations
        .into_iter()
        .map(|(name, options, use_lm, expansion)| {
            let mut per_set: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
            for seed in 0..scale.seeds {
                let results = run_once(
                    library,
                    scale,
                    TrainingStrategy::Genie,
                    options,
                    use_lm,
                    expansion,
                    seed as u64,
                    &sets,
                )?;
                for (idx, (_, result)) in results.iter().enumerate() {
                    per_set[idx].push(result.program_accuracy);
                }
            }
            Ok(Table3Row {
                name: name.to_owned(),
                paraphrase: AccuracySummary::of(&per_set[0]),
                validation: AccuracySummary::of(&per_set[1]),
                new_program: AccuracySummary::of(&per_set[2]),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 9 — case studies
// ---------------------------------------------------------------------------

/// One bar group of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Case-study label (Spotify, TACL, TT+A).
    pub case_study: String,
    /// Accuracy of the Baseline model (paraphrase-only, no augmentation, no
    /// parameter expansion).
    pub baseline: AccuracySummary,
    /// Accuracy of the Genie model.
    pub genie: AccuracySummary,
}

/// Reproduce Fig. 9: the Spotify skill, TACL, and TT+A case studies,
/// comparing the Wang-et-al Baseline with Genie on cheatsheet test data.
pub fn case_studies(scale: ExperimentScale) -> GenieResult<Vec<Fig9Row>> {
    Ok(vec![
        spotify_case_study(scale)?,
        tacl_case_study(scale)?,
        aggregation_case_study(scale)?,
    ])
}

fn program_accuracy_for(
    library: &Thingpedia,
    pipeline: &DataPipeline<'_>,
    parser_output: &[Vec<String>],
    dataset: &Dataset,
) -> f64 {
    let gold: Vec<Vec<String>> = dataset
        .examples
        .iter()
        .map(|e| pipeline.gold_tokens(e, NnOptions::default()))
        .collect();
    evaluate(library, &dataset.examples, &gold, parser_output).program_accuracy
}

fn spotify_case_study(scale: ExperimentScale) -> GenieResult<Fig9Row> {
    let library = Thingpedia::builtin_with_spotify();
    let mut baseline_accs = Vec::new();
    let mut genie_accs = Vec::new();
    for seed in 0..scale.seeds {
        let pipeline = DataPipeline::new(&library, scale.pipeline_config(seed as u64, false)?);
        let data = pipeline.build()?;
        // Test set: cheatsheet commands that use the Spotify skill.
        let cheatsheet = cheatsheet_data(
            &library,
            EvalDataConfig {
                size: scale.eval_size * 3,
                seed: 42_000 + seed as u64,
            },
        );
        let spotify_test = Dataset::from_examples(
            cheatsheet
                .examples
                .into_iter()
                .filter(|e| e.program.devices().contains(&"com.spotify"))
                .take(scale.eval_size)
                .collect(),
        );
        if spotify_test.is_empty() {
            continue;
        }
        let sentences: Vec<genie_nlp::TokenStream> = spotify_test
            .examples
            .iter()
            .map(|e| genie_templates::intern::shared().tokenized(&e.utterance))
            .collect();

        // Baseline: paraphrases only, no augmentation or expansion.
        let mut baseline = BaselineParser::new();
        baseline.train(&pipeline.to_parser_examples(&data.paraphrases, NnOptions::default()));
        let baseline_predictions = baseline.predict_batch(&sentences);
        baseline_accs.push(program_accuracy_for(
            &library,
            &pipeline,
            &baseline_predictions,
            &spotify_test,
        ));

        // Genie: the full strategy with the trained parser.
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: scale.epochs,
            max_length: 48,
            lm_weight: 2.0,
            seed: seed as u64,
            threads: scale.threads,
            ..ModelConfig::default()
        })
        .with_pretrained_lm(pipeline.pretrain_lm(2));
        parser.train(&pipeline.to_parser_examples(&data.combined(), NnOptions::default()));
        let genie_predictions = parser.predict_batch(&sentences);
        genie_accs.push(program_accuracy_for(
            &library,
            &pipeline,
            &genie_predictions,
            &spotify_test,
        ));
    }
    Ok(Fig9Row {
        case_study: "Spotify".to_owned(),
        baseline: AccuracySummary::of(&baseline_accs),
        genie: AccuracySummary::of(&genie_accs),
    })
}

/// Tokenize a TACL policy for sequence prediction (whitespace, with quoted
/// strings split into word tokens surrounded by quote tokens).
pub fn policy_tokens(policy: &thingtalk::policy::Policy) -> Vec<String> {
    let text = policy.to_string();
    let mut tokens = Vec::new();
    let mut rest = text.as_str();
    while let Some(start) = rest.find('"') {
        for piece in rest[..start].split_whitespace() {
            tokens.push(piece.to_owned());
        }
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else {
            rest = "";
            break;
        };
        tokens.push("\"".to_owned());
        for word in after[..end].split_whitespace() {
            tokens.push(word.to_owned());
        }
        tokens.push("\"".to_owned());
        rest = &after[end + 1..];
    }
    for piece in rest.split_whitespace() {
        tokens.push(piece.to_owned());
    }
    tokens
}

fn tacl_case_study(scale: ExperimentScale) -> GenieResult<Fig9Row> {
    let library = Thingpedia::builtin();
    let mut baseline_accs = Vec::new();
    let mut genie_accs = Vec::new();
    for seed in 0..scale.seeds {
        let generator = genie_templates::SentenceGenerator::new(
            &library,
            GeneratorConfig::builder()
                .target_per_rule(scale.target_per_rule * 2)
                .max_depth(3)
                .instantiations_per_template(1)
                .seed(seed as u64)
                .include_aggregation(false)
                .include_timers(false)
                .threads(0)
                .build()?,
        );
        let policies = generator.synthesize_policies();
        if policies.len() < 10 {
            continue;
        }
        // Split: most for training, a held-out cheatsheet-style test set
        // rewritten by the paraphrase simulator.
        let split = (policies.len() * 4) / 5;
        let (train_policies, test_policies) = policies.split_at(split);
        let simulator = ParaphraseSimulator::new(
            ParaphraseConfig::builder()
                .per_sentence(1)
                .error_rate(0.0)
                .seed(17 + seed as u64)
                .build()?,
        );
        let train_paraphrase_examples: Vec<ParserExample> = train_policies
            .iter()
            .flat_map(|(utterance, policy)| {
                let mut rng = rand::SeedableRng::seed_from_u64(seed as u64);
                let example = crate::dataset::Example::new(
                    utterance.clone(),
                    thingtalk::Program::do_action(thingtalk::ast::Invocation::new(
                        "builtin", "noop",
                    )),
                    crate::dataset::ExampleSource::Synthesized,
                );
                let rewrites = simulator.paraphrase(&example, &mut rng);
                let interner = genie_templates::intern::shared();
                let mut out = vec![ParserExample::new(
                    interner.tokenize_text(utterance),
                    policy_tokens(policy),
                )];
                for rewrite in rewrites {
                    out.push(ParserExample::new(
                        interner.tokenized(&rewrite.utterance),
                        policy_tokens(policy),
                    ));
                }
                out
            })
            .collect();
        let test_examples: Vec<ParserExample> = test_policies
            .iter()
            .map(|(utterance, policy)| {
                ParserExample::new(
                    genie_templates::intern::shared().tokenize_text(utterance),
                    policy_tokens(policy),
                )
            })
            .collect();

        // Baseline: paraphrase matching over the (small) paraphrase portion
        // only — approximated by training on the non-synthesized rewrites.
        let mut baseline = BaselineParser::new();
        baseline.train(&train_paraphrase_examples[..train_paraphrase_examples.len() / 3]);
        baseline_accs.push(baseline.exact_match_accuracy(&test_examples));

        // Genie: train the parser on everything (synthesized + rewrites).
        let mut parser = LuinetParser::new(ModelConfig {
            epochs: scale.epochs,
            max_length: 40,
            lm_weight: 0.0,
            seed: seed as u64,
            threads: scale.threads,
            ..ModelConfig::default()
        });
        parser.train(&train_paraphrase_examples);
        genie_accs.push(parser.exact_match_accuracy(&test_examples));
    }
    Ok(Fig9Row {
        case_study: "TACL".to_owned(),
        baseline: AccuracySummary::of(&baseline_accs),
        genie: AccuracySummary::of(&genie_accs),
    })
}

fn aggregation_case_study(scale: ExperimentScale) -> GenieResult<Fig9Row> {
    let library = Thingpedia::builtin();
    let mut baseline_accs = Vec::new();
    let mut genie_accs = Vec::new();
    for seed in 0..scale.seeds {
        let mut config = scale.pipeline_config(seed as u64, true)?;
        config.synthesis.include_aggregation = true;
        let pipeline = DataPipeline::new(&library, config);
        let data = pipeline.build()?;
        let test = aggregation_cheatsheet_data(
            &library,
            EvalDataConfig {
                size: scale.eval_size,
                seed: 61_000 + seed as u64,
            },
        );
        if test.is_empty() {
            continue;
        }
        let sentences: Vec<genie_nlp::TokenStream> = test
            .examples
            .iter()
            .map(|e| genie_templates::intern::shared().tokenized(&e.utterance))
            .collect();

        let mut baseline = BaselineParser::new();
        baseline.train(&pipeline.to_parser_examples(&data.paraphrases, NnOptions::default()));
        baseline_accs.push(program_accuracy_for(
            &library,
            &pipeline,
            &baseline.predict_batch(&sentences),
            &test,
        ));

        let mut parser = LuinetParser::new(ModelConfig {
            epochs: scale.epochs,
            max_length: 48,
            lm_weight: 2.0,
            seed: seed as u64,
            threads: scale.threads,
            ..ModelConfig::default()
        })
        .with_pretrained_lm(pipeline.pretrain_lm(1));
        parser.train(&pipeline.to_parser_examples(&data.combined(), NnOptions::default()));
        genie_accs.push(program_accuracy_for(
            &library,
            &pipeline,
            &parser.predict_batch(&sentences),
            &test,
        ));
    }
    Ok(Fig9Row {
        case_study: "TT+A".to_owned(),
        baseline: AccuracySummary::of(&baseline_accs),
        genie: AccuracySummary::of(&genie_accs),
    })
}

// ---------------------------------------------------------------------------
// Fig. 7 and §5.2 statistics
// ---------------------------------------------------------------------------

/// Dataset statistics reported in §5.2 and Fig. 7.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// Fig. 7 composition of the combined training set.
    pub composition: Composition,
    /// Number of synthesized sentences.
    pub synthesized_sentences: usize,
    /// Number of paraphrases.
    pub paraphrases: usize,
    /// Total training sentences after augmentation.
    pub total_sentences: usize,
    /// Distinct programs in the training set.
    pub distinct_programs: usize,
    /// Distinct function combinations.
    pub distinct_function_combinations: usize,
    /// Distinct words in synthesized sentences only.
    pub synthesized_words: usize,
    /// Distinct words in the full training set.
    pub total_words: usize,
    /// Fraction of the training set that is paraphrases.
    pub paraphrase_fraction: f64,
    /// Construct-template counts (primitive, compound, filters).
    pub construct_templates: (usize, usize, usize),
    /// Number of primitive templates in the library.
    pub primitive_templates: usize,
    /// Primitive templates per function.
    pub templates_per_function: f64,
}

/// Compute the dataset characteristics (Fig. 7 + the §5.2 statistics).
pub fn dataset_characteristics(
    library: &Thingpedia,
    scale: ExperimentScale,
) -> GenieResult<DatasetStats> {
    let pipeline = DataPipeline::new(library, scale.pipeline_config(0, false)?);
    let data = pipeline.build()?;
    let combined = data.combined();
    Ok(DatasetStats {
        composition: combined.composition(),
        synthesized_sentences: data.synthesized.len(),
        paraphrases: data.paraphrases.len(),
        total_sentences: combined.len(),
        distinct_programs: combined.distinct_programs(),
        distinct_function_combinations: combined.distinct_function_combinations(),
        synthesized_words: data.synthesized.distinct_words(),
        total_words: combined.distinct_words(),
        paraphrase_fraction: combined.paraphrase_fraction(),
        construct_templates: construct_template_counts(),
        primitive_templates: library.templates().len(),
        templates_per_function: library.templates_per_function(),
    })
}

/// Reproduce the §5.5 error analysis: run the Genie configuration once and
/// report the fine-grained metrics on the validation set.
pub fn error_analysis(library: &Thingpedia, scale: ExperimentScale) -> GenieResult<EvalResult> {
    let test_sets = build_test_sets(library, scale);
    let sets: Vec<(&str, &Dataset)> = vec![("validation", &test_sets.validation)];
    let results = run_once(
        library,
        scale,
        TrainingStrategy::Genie,
        NnOptions::default(),
        true,
        true,
        0,
        &sets,
    )?;
    Ok(results[0].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_characteristics_are_sane() {
        let library = Thingpedia::builtin();
        let stats = dataset_characteristics(&library, ExperimentScale::tiny()).unwrap();
        assert!(stats.synthesized_sentences > 50);
        assert!(stats.paraphrases > 10);
        assert!(stats.total_sentences >= stats.synthesized_sentences + stats.paraphrases);
        assert!(stats.paraphrase_fraction > 0.0 && stats.paraphrase_fraction < 1.0);
        assert!(stats.distinct_programs > 30);
        assert!(stats.total_words >= stats.synthesized_words);
        assert!(stats.composition.total() == stats.total_sentences);
        assert!(stats.primitive_templates > 250);
    }

    #[test]
    fn policy_tokens_handle_quoted_strings() {
        let policy = thingtalk::syntax::parse_policy(
            "source == \"secretary\" : now => @com.gmail.inbox() filter labels contains \"work\" => notify",
        )
        .unwrap();
        let tokens = policy_tokens(&policy);
        assert!(tokens.contains(&"secretary".to_owned()));
        assert!(tokens.contains(&"work".to_owned()));
        assert_eq!(tokens.iter().filter(|t| *t == "\"").count(), 4);
    }

    #[test]
    fn test_sets_are_built_and_disjoint_in_seeds() {
        let library = Thingpedia::builtin();
        let sets = build_test_sets(&library, ExperimentScale::tiny());
        assert!(!sets.validation.is_empty());
        assert!(!sets.cheatsheet.is_empty());
        assert!(!sets.ifttt.is_empty());
        assert!(!sets.paraphrase.is_empty());
    }
}
