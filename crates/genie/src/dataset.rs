//! Dataset types: examples, sources, composition statistics (Fig. 7),
//! program-level splits, and the incremental sharded writers of the
//! streaming pipeline.

use std::collections::{BTreeSet, HashMap};
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use genie_nlp::colfmt::{
    self, ColumnShard, ColumnShardWriter, LoadedTable, StringTable, SHARD_MAGIC,
};
use genie_nlp::intern::{FnvState, Interner, Symbol, TokenStream};
use genie_templates::ExampleFlags;
use luinet::ParserExample;
use thingtalk::Program;

use crate::error::{Error, GenieResult};

/// Where an example came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExampleSource {
    /// Produced directly by the template synthesizer.
    Synthesized,
    /// A (simulated) crowdworker paraphrase of a synthesized sentence.
    Paraphrase,
    /// Produced by parameter expansion or PPDB augmentation of another
    /// example.
    Augmented,
    /// Realistic evaluation data (developer, cheatsheet, IFTTT).
    Evaluation,
}

/// One sentence/program pair flowing through the pipeline.
///
/// The utterance is an interned [`TokenStream`] (see
/// `genie_templates::intern`): pipeline stages splice, compare and
/// fingerprint 4-byte symbols, and the text is materialized exactly once —
/// at TSV-write time or for human-facing output ([`Example::text`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// The natural-language utterance as interned tokens.
    pub utterance: TokenStream,
    /// The target program.
    pub program: Program,
    /// Provenance.
    pub source: ExampleSource,
    /// Structural flags (primitive/compound, filters, parameter passing).
    pub flags: ExampleFlags,
}

/// Conversion into an interned utterance: pre-built token streams pass
/// through untouched; text interns its whitespace words into the shared
/// arena, so the evaluation loaders and tests keep passing plain strings.
pub trait IntoUtterance {
    /// Produce the interned token stream.
    fn into_utterance(self) -> TokenStream;
}

impl IntoUtterance for TokenStream {
    fn into_utterance(self) -> TokenStream {
        self
    }
}

impl IntoUtterance for &str {
    fn into_utterance(self) -> TokenStream {
        genie_templates::intern::shared().stream_of(self)
    }
}

impl IntoUtterance for String {
    fn into_utterance(self) -> TokenStream {
        self.as_str().into_utterance()
    }
}

impl Example {
    /// Create an example, computing flags from the program.
    pub fn new(utterance: impl IntoUtterance, program: Program, source: ExampleSource) -> Self {
        let flags = ExampleFlags::of(&program);
        Example {
            utterance: utterance.into_utterance(),
            program,
            source,
            flags,
        }
    }

    /// Render the utterance through the shared arena (the arena every
    /// pipeline component defaults to).
    pub fn text(&self) -> String {
        genie_templates::intern::shared().render(&self.utterance)
    }

    /// Render the utterance through an explicit arena.
    pub fn text_with(&self, interner: &Interner) -> String {
        interner.render(&self.utterance)
    }

    /// A stable key identifying the program's function combination
    /// (used for the seen/unseen-program splits of §5.1 and §5.4).
    pub fn function_signature(&self) -> String {
        let mut functions: Vec<String> = self
            .program
            .functions()
            .iter()
            .map(|f| f.to_string())
            .collect();
        functions.sort();
        functions.join("+")
    }
}

/// The composition of a dataset, as reported in Fig. 7.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Composition {
    /// Primitive commands without filters.
    pub primitive: usize,
    /// Primitive commands with filters.
    pub primitive_filters: usize,
    /// Compound commands without parameter passing or filters.
    pub compound: usize,
    /// Compound commands with parameter passing.
    pub compound_param_passing: usize,
    /// Compound commands with filters (including those that also pass
    /// parameters).
    pub compound_filters: usize,
}

impl Composition {
    /// Total number of examples.
    pub fn total(&self) -> usize {
        self.primitive
            + self.primitive_filters
            + self.compound
            + self.compound_param_passing
            + self.compound_filters
    }

    /// The five Fig. 7 shares, in the paper's order, as fractions of the
    /// total.
    pub fn shares(&self) -> [(&'static str, f64); 5] {
        let total = self.total().max(1) as f64;
        [
            ("primitive commands", self.primitive as f64 / total),
            ("+ filters", self.primitive_filters as f64 / total),
            ("compound commands", self.compound as f64 / total),
            (
                "+ parameter passing",
                self.compound_param_passing as f64 / total,
            ),
            ("+ filters", self.compound_filters as f64 / total),
        ]
    }
}

/// A collection of examples with dataset-level statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// The examples.
    pub examples: Vec<Example>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Build a dataset from examples.
    pub fn from_examples(examples: Vec<Example>) -> Self {
        Dataset { examples }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Append another dataset.
    pub fn extend(&mut self, other: Dataset) {
        self.examples.extend(other.examples);
    }

    /// The number of distinct programs (by canonical surface form).
    pub fn distinct_programs(&self) -> usize {
        let set: BTreeSet<String> = self
            .examples
            .iter()
            .map(|e| e.program.to_string())
            .collect();
        set.len()
    }

    /// The number of distinct function combinations.
    pub fn distinct_function_combinations(&self) -> usize {
        let set: BTreeSet<String> = self
            .examples
            .iter()
            .map(|e| e.function_signature())
            .collect();
        set.len()
    }

    /// The number of distinct words across all utterances (tokenizer
    /// granularity, via the cached per-symbol expansions — no re-tokenize).
    pub fn distinct_words(&self) -> usize {
        let interner = genie_templates::intern::shared();
        let mut set: BTreeSet<genie_nlp::Symbol> = BTreeSet::new();
        for example in &self.examples {
            for symbol in &example.utterance {
                let mut expansion = TokenStream::new();
                interner.push_tokenized(symbol, &mut expansion);
                set.extend(expansion.iter());
            }
        }
        set.len()
    }

    /// Fraction of examples coming from (simulated) paraphrases.
    pub fn paraphrase_fraction(&self) -> f64 {
        if self.examples.is_empty() {
            return 0.0;
        }
        let paraphrases = self
            .examples
            .iter()
            .filter(|e| e.source == ExampleSource::Paraphrase)
            .count();
        paraphrases as f64 / self.examples.len() as f64
    }

    /// The Fig. 7 composition of the dataset.
    pub fn composition(&self) -> Composition {
        let mut composition = Composition::default();
        for example in &self.examples {
            let flags = example.flags;
            if flags.primitive {
                if flags.filter {
                    composition.primitive_filters += 1;
                } else {
                    composition.primitive += 1;
                }
            } else if flags.filter {
                composition.compound_filters += 1;
            } else if flags.param_passing {
                composition.compound_param_passing += 1;
            } else {
                composition.compound += 1;
            }
        }
        composition
    }

    /// Split examples into those whose function combination appears in the
    /// `reference` dataset ("seen programs") and those whose combination does
    /// not ("new programs"), the distinction used in §5.2 and Table 3.
    pub fn split_by_seen_programs(&self, reference: &Dataset) -> (Dataset, Dataset) {
        let seen: BTreeSet<String> = reference
            .examples
            .iter()
            .map(|e| e.function_signature())
            .collect();
        let mut seen_split = Dataset::new();
        let mut new_split = Dataset::new();
        for example in &self.examples {
            if seen.contains(&example.function_signature()) {
                seen_split.examples.push(example.clone());
            } else {
                new_split.examples.push(example.clone());
            }
        }
        (seen_split, new_split)
    }
}

/// The on-disk layout of a sharded dataset.
///
/// Both layouts obey the same canonical-order contract (round-robin shard
/// assignment, merge by interleaving rounds), so the merged stream — and
/// therefore the dataset digest — is identical between them. Choose by
/// consumer: TSV is greppable text for humans and external trainers;
/// columnar is the binary layout of [`genie_nlp::colfmt`] — roughly an
/// order of magnitude smaller, and loadable without re-tokenizing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DatasetFormat {
    /// One `sentence\tprogram` text line per example
    /// (`{stem}.shard-NNNN.tsv`).
    #[default]
    Tsv,
    /// Binary columnar shards (`{stem}.shard-NNNN.col`) sharing one string
    /// table (`{stem}.table.col`).
    Columnar,
}

/// The per-format state behind a [`ShardedDatasetWriter`].
enum ShardBackend {
    Tsv {
        writers: Vec<BufWriter<File>>,
        /// One growable render buffer per shard, reused across rows:
        /// rendering an example reuses the capacity its shard's previous
        /// rows grew, so steady-state writes allocate nothing.
        render_buffers: Vec<String>,
    },
    Columnar {
        shards: Vec<ColumnShardWriter>,
        table: StringTable,
        table_path: PathBuf,
        /// Live-arena symbol → local table id, so repeated utterance tokens
        /// cost one 4-byte hash instead of re-hashing their text.
        symbol_ids: HashMap<Symbol, u32, FnvState>,
        utterance_ids: Vec<u32>,
        program_ids: Vec<u32>,
    },
}

/// An incremental writer that spreads a stream of parser examples across
/// `N` shard files, so arbitrarily large datasets are written with bounded
/// memory and can be consumed shard-by-shard downstream.
///
/// Examples are assigned **round-robin** (`shard = sequence_index % N`):
/// shard files are written in canonical stream order, and
/// [`ShardedDatasetWriter::merge_for_each`] interleaves them back into
/// exactly the original sequence. The merged content is therefore identical
/// for any shard count *and either [`DatasetFormat`]* — the layout is
/// storage, not semantics.
pub struct ShardedDatasetWriter {
    backend: ShardBackend,
    paths: Vec<PathBuf>,
    written: usize,
}

impl ShardedDatasetWriter {
    /// Create `shard_count` TSV shard files `{stem}.shard-NNNN.tsv` under
    /// `dir` (`0` is treated as 1), truncating any existing files.
    pub fn create(dir: impl AsRef<Path>, stem: &str, shard_count: usize) -> io::Result<Self> {
        Self::create_with_format(dir, stem, shard_count, DatasetFormat::Tsv)
    }

    /// [`ShardedDatasetWriter::create`] with an explicit [`DatasetFormat`].
    ///
    /// Columnar shards are buffered as id columns and written at
    /// [`ShardedDatasetWriter::finish`], together with the shared string
    /// table `{stem}.table.col`.
    pub fn create_with_format(
        dir: impl AsRef<Path>,
        stem: &str,
        shard_count: usize,
        format: DatasetFormat,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let shard_count = shard_count.max(1);
        let mut paths = Vec::new();
        let backend = match format {
            DatasetFormat::Tsv => {
                let mut writers = Vec::new();
                for shard in 0..shard_count {
                    let path = dir.join(format!("{stem}.shard-{shard:04}.tsv"));
                    writers.push(BufWriter::new(File::create(&path)?));
                    paths.push(path);
                }
                let render_buffers = vec![String::new(); writers.len()];
                ShardBackend::Tsv {
                    writers,
                    render_buffers,
                }
            }
            DatasetFormat::Columnar => {
                for shard in 0..shard_count {
                    paths.push(dir.join(format!("{stem}.shard-{shard:04}.col")));
                }
                ShardBackend::Columnar {
                    shards: (0..shard_count).map(|_| ColumnShardWriter::new()).collect(),
                    table: StringTable::new(),
                    table_path: dir.join(format!("{stem}.table.col")),
                    symbol_ids: HashMap::default(),
                    utterance_ids: Vec::new(),
                    program_ids: Vec::new(),
                }
            }
        };
        Ok(ShardedDatasetWriter {
            backend,
            paths,
            written: 0,
        })
    }

    /// The format this writer produces.
    pub fn format(&self) -> DatasetFormat {
        match self.backend {
            ShardBackend::Tsv { .. } => DatasetFormat::Tsv,
            ShardBackend::Columnar { .. } => DatasetFormat::Columnar,
        }
    }

    /// The shared string-table path of a columnar writer (`None` for TSV).
    pub fn table_path(&self) -> Option<&Path> {
        match &self.backend {
            ShardBackend::Tsv { .. } => None,
            ShardBackend::Columnar { table_path, .. } => Some(table_path),
        }
    }

    /// Append one parser example to the next shard in round-robin order.
    ///
    /// TSV renders the row text into the shard's reused buffer (this is the
    /// single point where the streamed utterance becomes text). Columnar
    /// never renders: sentence symbols map to local table ids through a
    /// symbol cache, program tokens intern into the shared string table,
    /// and the row is four column appends.
    pub fn write(&mut self, example: &ParserExample) -> io::Result<()> {
        let shard = self.written % self.paths.len();
        match &mut self.backend {
            ShardBackend::Tsv {
                writers,
                render_buffers,
            } => {
                let line = &mut render_buffers[shard];
                line.clear();
                example.render_tsv_row(line);
                writers[shard].write_all(line.as_bytes())?;
            }
            ShardBackend::Columnar {
                shards,
                table,
                symbol_ids,
                utterance_ids,
                program_ids,
                ..
            } => {
                let interner: &'static Interner = genie_templates::intern::shared();
                utterance_ids.clear();
                for symbol in &example.sentence {
                    let id = *symbol_ids
                        .entry(symbol)
                        .or_insert_with(|| table.id_of(interner.resolve(symbol)));
                    utterance_ids.push(id);
                }
                program_ids.clear();
                for token in &example.program {
                    program_ids.push(table.id_of(token));
                }
                shards[shard].push_row(self.written as u64, 0, utterance_ids, program_ids);
            }
        }
        self.written += 1;
        Ok(())
    }

    /// Number of examples written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// The shard file paths, in shard order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Flush (TSV) or write out (columnar, including the shared string
    /// table) every shard, and return the shard paths. Columnar artifacts
    /// are sealed with a checksum footer and renamed into place atomically
    /// (see [`colfmt::write_artifact`]), so a crash mid-write can never
    /// leave a half-written shard under the final name.
    pub fn finish(mut self) -> GenieResult<Vec<PathBuf>> {
        match &mut self.backend {
            ShardBackend::Tsv { writers, .. } => {
                for writer in writers {
                    writer.flush()?;
                }
            }
            ShardBackend::Columnar {
                shards,
                table,
                table_path,
                ..
            } => {
                for (shard, path) in shards.iter().zip(&self.paths) {
                    shard.write_file(path)?;
                }
                table.write_file(table_path)?;
            }
        }
        Ok(self.paths)
    }

    /// Interleave round-robin shard files back into the canonical stream,
    /// handing each `sentence\tprogram` line to `sink`: round `k` yields
    /// line `k` of each shard, in shard order. The sequence is exactly what
    /// was written, for any shard count.
    ///
    /// The format is sniffed from the first shard's magic bytes, and both
    /// formats yield identical lines — columnar rows are rendered through
    /// the shard set's string table on the way out. Only one line is
    /// resident at a time (the columnar path holds the loaded id columns,
    /// which are an order of magnitude smaller than the text).
    pub fn merge_for_each(paths: &[PathBuf], sink: impl FnMut(String)) -> GenieResult<()> {
        let Some(first) = paths.first() else {
            return Ok(());
        };
        match colfmt::file_magic(first)? {
            Some(magic) if magic == SHARD_MAGIC => Self::merge_columnar(paths, sink),
            _ => Self::merge_tsv(paths, sink),
        }
    }

    fn merge_tsv(paths: &[PathBuf], mut sink: impl FnMut(String)) -> GenieResult<()> {
        let mut readers = Vec::new();
        for path in paths {
            readers.push(BufReader::new(File::open(path)?).lines());
        }
        loop {
            let mut any = false;
            for reader in &mut readers {
                if let Some(line) = reader.next() {
                    sink(line.map_err(Error::Io)?);
                    any = true;
                }
            }
            if !any {
                return Ok(());
            }
        }
    }

    fn merge_columnar(paths: &[PathBuf], mut sink: impl FnMut(String)) -> GenieResult<()> {
        let first = paths.first().expect("checked by merge_for_each");
        let table = load_columnar_table(first)?;
        let mut shards = Vec::with_capacity(paths.len());
        for path in paths {
            let bytes = colfmt::read_artifact(path, "colfmt.read")?;
            shards.push(ColumnShard::from_file_bytes(&bytes)?);
        }
        let rounds = shards.iter().map(ColumnShard::rows).max().unwrap_or(0);
        for round in 0..rounds {
            for shard in &shards {
                if round >= shard.rows() {
                    continue;
                }
                let mut line = String::new();
                render_columnar_row(&table, shard, round, &mut line)?;
                sink(line);
            }
        }
        Ok(())
    }
}

/// Derive the shared string-table path of a columnar shard set from any of
/// its shard paths (`{stem}.shard-NNNN.col` → `{stem}.table.col`).
fn columnar_table_path(shard: &Path) -> GenieResult<PathBuf> {
    let name = shard.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let stem =
        name.find(".shard-")
            .map(|at| &name[..at])
            .ok_or_else(|| Error::CorruptArtifact {
                detail: format!(
                    "columnar shard `{}` has no `.shard-` component to derive its table path from",
                    shard.display()
                ),
            })?;
    Ok(shard.with_file_name(format!("{stem}.table.col")))
}

/// Load the shared string table of the columnar shard set `shard` belongs
/// to.
fn load_columnar_table(shard: &Path) -> GenieResult<LoadedTable> {
    let table_path = columnar_table_path(shard)?;
    let bytes = colfmt::read_artifact(&table_path, "colfmt.read")?;
    Ok(LoadedTable::from_file_bytes(&bytes)?)
}

/// Render one columnar row as the `sentence\tprogram` line its TSV twin
/// would carry (without the trailing newline, matching what
/// [`ShardedDatasetWriter::merge_for_each`] yields for TSV shards).
fn render_columnar_row(
    table: &LoadedTable,
    shard: &ColumnShard,
    row: usize,
    out: &mut String,
) -> GenieResult<()> {
    for (i, &id) in shard.utterance(row).iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(table.get(id)?);
    }
    out.push('\t');
    for (i, &id) in shard.program(row).iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(table.get(id)?);
    }
    Ok(())
}

/// Load one columnar shard back into [`ParserExample`]s, in the shard's
/// row order.
///
/// The shard set's string table is re-interned into the live arena in one
/// bulk pass (one hash per *distinct* token text); after that every row is
/// id-to-symbol mapping — no tokenization, no per-token hashing. This is
/// how a worker process gets its slice of a dataset without paying the
/// text costs the columnar format exists to avoid.
pub fn read_columnar_shard(path: &Path) -> GenieResult<Vec<ParserExample>> {
    let table = load_columnar_table(path)?;
    let bytes = colfmt::read_artifact(path, "colfmt.read")?;
    let shard = ColumnShard::from_file_bytes(&bytes)?;
    let interner: &'static Interner = genie_templates::intern::shared();
    let symbols: Vec<Symbol> = table.iter().map(|text| interner.intern(text)).collect();
    let symbol_of = |id: u32| -> GenieResult<Symbol> {
        symbols
            .get(id as usize)
            .copied()
            .ok_or_else(|| Error::CorruptArtifact {
                detail: format!(
                    "columnar shard `{}`: token id {id} out of range (table holds {} strings)",
                    path.display(),
                    symbols.len()
                ),
            })
    };
    let mut examples = Vec::with_capacity(shard.rows());
    for row in 0..shard.rows() {
        let mut sentence = TokenStream::new();
        for &id in shard.utterance(row) {
            sentence.push(symbol_of(id)?);
        }
        let mut program = Vec::with_capacity(shard.program(row).len());
        for &id in shard.program(row) {
            program.push(interner.resolve(symbol_of(id)?).to_owned());
        }
        examples.push(ParserExample::new(sentence, program));
    }
    Ok(examples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thingtalk::syntax::parse_program;

    fn example(utterance: &str, program: &str, source: ExampleSource) -> Example {
        Example::new(utterance, parse_program(program).unwrap(), source)
    }

    fn sample_dataset() -> Dataset {
        Dataset::from_examples(vec![
            example("show me my emails", "now => @com.gmail.inbox() => notify", ExampleSource::Synthesized),
            example(
                "emails from alice",
                "now => @com.gmail.inbox() filter sender == \"alice\" => notify",
                ExampleSource::Synthesized,
            ),
            example(
                "when i get an email send a slack message",
                "monitor (@com.gmail.inbox()) => @com.slack.send(channel = \"#x\"^^tt:slack_channel, message = \"mail\")",
                ExampleSource::Paraphrase,
            ),
            example(
                "when i get an email forward the subject to slack",
                "monitor (@com.gmail.inbox()) => @com.slack.send(channel = \"#x\"^^tt:slack_channel, message = subject)",
                ExampleSource::Paraphrase,
            ),
        ])
    }

    #[test]
    fn composition_buckets() {
        let dataset = sample_dataset();
        let composition = dataset.composition();
        assert_eq!(composition.primitive, 1);
        assert_eq!(composition.primitive_filters, 1);
        assert_eq!(composition.compound, 1);
        assert_eq!(composition.compound_param_passing, 1);
        assert_eq!(composition.total(), 4);
        let shares = composition.shares();
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_counts() {
        let dataset = sample_dataset();
        assert_eq!(dataset.len(), 4);
        assert_eq!(dataset.distinct_programs(), 4);
        assert_eq!(dataset.distinct_function_combinations(), 2);
        assert!(dataset.distinct_words() > 10);
        assert!((dataset.paraphrase_fraction() - 0.5).abs() < 1e-9);
    }

    fn parser_example(i: usize) -> ParserExample {
        ParserExample::new(
            genie_templates::intern::shared().stream_of(&format!("sentence{i} words")),
            vec!["now".to_owned(), "=>".to_owned(), format!("prog{i}")],
        )
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("genie-writer-{tag}-{}", std::process::id()))
    }

    fn merge_lines(paths: &[PathBuf]) -> Vec<String> {
        let mut out = Vec::new();
        ShardedDatasetWriter::merge_for_each(paths, |line| out.push(line)).unwrap();
        out
    }

    #[test]
    fn sharded_writer_merge_is_shard_count_invariant() {
        let examples: Vec<ParserExample> = (0..37).map(parser_example).collect();
        let mut merged_per_count = Vec::new();
        for shard_count in [1usize, 4, 16] {
            let dir = scratch_dir(&format!("inv{shard_count}"));
            let mut writer = ShardedDatasetWriter::create(&dir, "train", shard_count).unwrap();
            for example in &examples {
                writer.write(example).unwrap();
            }
            assert_eq!(writer.written(), examples.len());
            assert_eq!(writer.paths().len(), shard_count);
            assert_eq!(writer.format(), DatasetFormat::Tsv);
            assert!(writer.table_path().is_none());
            let paths = writer.finish().unwrap();
            merged_per_count.push(merge_lines(&paths));
            fs::remove_dir_all(&dir).unwrap();
        }
        assert_eq!(merged_per_count[0].len(), 37);
        assert_eq!(merged_per_count[0], merged_per_count[1]);
        assert_eq!(merged_per_count[1], merged_per_count[2]);
        assert!(merged_per_count[0][0].starts_with("sentence0 words\t"));
        assert!(merged_per_count[0][36].contains("prog36"));
    }

    #[test]
    fn columnar_writer_merges_identically_to_tsv() {
        let examples: Vec<ParserExample> = (0..37).map(parser_example).collect();
        let mut merged_per_format = Vec::new();
        for format in [DatasetFormat::Tsv, DatasetFormat::Columnar] {
            let dir = scratch_dir(&format!("fmt-{format:?}"));
            let mut writer =
                ShardedDatasetWriter::create_with_format(&dir, "train", 4, format).unwrap();
            for example in &examples {
                writer.write(example).unwrap();
            }
            assert_eq!(writer.format(), format);
            if format == DatasetFormat::Columnar {
                assert!(writer.table_path().unwrap().ends_with("train.table.col"));
            }
            let paths = writer.finish().unwrap();
            merged_per_format.push(merge_lines(&paths));
            fs::remove_dir_all(&dir).unwrap();
        }
        assert_eq!(merged_per_format[0].len(), 37);
        assert_eq!(merged_per_format[0], merged_per_format[1]);
    }

    #[test]
    fn columnar_shards_read_back_as_examples() {
        let examples: Vec<ParserExample> = (0..10).map(parser_example).collect();
        let dir = scratch_dir("readback");
        let mut writer =
            ShardedDatasetWriter::create_with_format(&dir, "train", 3, DatasetFormat::Columnar)
                .unwrap();
        for example in &examples {
            writer.write(example).unwrap();
        }
        let paths = writer.finish().unwrap();
        // Round-robin: shard s holds examples s, s+3, s+6, ...
        let mut roundtripped = vec![Vec::new(); 3];
        for (shard, path) in paths.iter().enumerate() {
            roundtripped[shard] = read_columnar_shard(path).unwrap();
        }
        assert_eq!(
            roundtripped.iter().map(Vec::len).sum::<usize>(),
            examples.len()
        );
        for (i, example) in examples.iter().enumerate() {
            assert_eq!(&roundtripped[i % 3][i / 3], example, "example {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_columnar_artifacts_are_typed_errors() {
        let dir = scratch_dir("corrupt");
        let mut writer =
            ShardedDatasetWriter::create_with_format(&dir, "train", 2, DatasetFormat::Columnar)
                .unwrap();
        for i in 0..6 {
            writer.write(&parser_example(i)).unwrap();
        }
        let paths = writer.finish().unwrap();
        // Truncating the string table corrupts the whole shard set.
        let table_path = dir.join("train.table.col");
        let table_bytes = fs::read(&table_path).unwrap();
        fs::write(&table_path, &table_bytes[..table_bytes.len() / 2]).unwrap();
        let error = ShardedDatasetWriter::merge_for_each(&paths, |_| {}).unwrap_err();
        assert!(
            matches!(error, Error::CorruptArtifact { .. }),
            "got {error:?}"
        );
        let error = read_columnar_shard(&paths[0]).unwrap_err();
        assert!(
            matches!(error, Error::CorruptArtifact { .. }),
            "got {error:?}"
        );
        // A missing table is an I/O error, not a panic.
        fs::remove_file(&table_path).unwrap();
        let error = ShardedDatasetWriter::merge_for_each(&paths, |_| {}).unwrap_err();
        assert!(matches!(error, Error::Io(_)), "got {error:?}");
        // A shard path without the `.shard-` component cannot name a table.
        let odd = dir.join("noshard.col");
        fs::copy(&paths[0], &odd).unwrap();
        let error = read_columnar_shard(&odd).unwrap_err();
        assert!(
            matches!(error, Error::CorruptArtifact { .. }),
            "got {error:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_writer_spreads_lines_across_shards() {
        let dir = scratch_dir("spread");
        let mut writer = ShardedDatasetWriter::create(&dir, "train", 3).unwrap();
        for i in 0..10 {
            writer.write(&parser_example(i)).unwrap();
        }
        let paths = writer.finish().unwrap();
        let lines_per_shard: Vec<usize> = paths
            .iter()
            .map(|p| fs::read_to_string(p).unwrap().lines().count())
            .collect();
        // Round-robin: 10 examples over 3 shards = 4 + 3 + 3.
        assert_eq!(lines_per_shard, vec![4, 3, 3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seen_unseen_split() {
        let dataset = sample_dataset();
        let reference = Dataset::from_examples(vec![example(
            "list my inbox",
            "now => @com.gmail.inbox() => notify",
            ExampleSource::Synthesized,
        )]);
        let (seen, unseen) = dataset.split_by_seen_programs(&reference);
        assert_eq!(seen.len(), 2);
        assert_eq!(unseen.len(), 2);
    }
}
