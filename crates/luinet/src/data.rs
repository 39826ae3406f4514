//! Training and evaluation examples for the parser.

use genie_nlp::intern::TokenStream;

/// One (sentence, program) pair.
///
/// The sentence is an interned token stream (tokenizer granularity,
/// produced by `genie-nlp` — either the cached per-symbol expansion of a
/// synthesized utterance or `tokenize_into` for external text) in the
/// process-shared arena ([`genie_nlp::intern::shared`]); the program is in
/// NN syntax (`thingtalk::nn_syntax`). Keeping the sentence interned means
/// the pipeline hands examples to training and to the TSV writers without
/// ever materializing per-sentence `Vec<String>`s.
#[derive(Debug, Clone, PartialEq)]
pub struct ParserExample {
    /// The input sentence tokens.
    pub sentence: TokenStream,
    /// The target program tokens.
    pub program: Vec<String>,
}

impl ParserExample {
    /// Create an example from a token stream and program tokens.
    pub fn new(sentence: TokenStream, program: Vec<String>) -> Self {
        ParserExample { sentence, program }
    }

    /// Create an example by whitespace-splitting two strings (convenient in
    /// tests); the sentence words intern into the shared arena.
    pub fn from_strs(sentence: &str, program: &str) -> Self {
        ParserExample {
            sentence: genie_nlp::intern::shared().stream_of(sentence),
            program: program.split_whitespace().map(str::to_owned).collect(),
        }
    }

    /// The sentence rendered back to text (shared arena).
    pub fn sentence_text(&self) -> String {
        genie_nlp::intern::shared().render(&self.sentence)
    }

    /// Append this example's canonical TSV row
    /// (`sentence<TAB>program<NL>`, shared arena) to `out` — the **single**
    /// definition of the dataset's on-disk row format, used by both the
    /// sharded writers and the digest tooling so the digest can never
    /// disagree with the written bytes.
    pub fn render_tsv_row(&self, out: &mut String) {
        let interner = genie_nlp::intern::shared();
        for (i, symbol) in self.sentence.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(interner.resolve(symbol));
        }
        out.push('\t');
        for (i, token) in self.program.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(token);
        }
        out.push('\n');
    }
}

/// Resolve a sentence's symbols against the shared arena.
///
/// The arena is a process-static append-only structure with lock-free
/// resolve, so the returned `&'static str`s are plain table reads. The
/// decoder itself no longer materializes this view — it folds each sentence
/// once into a [`crate::features::SentenceIndex`] and works on symbols — but
/// evaluation and debugging still borrow words through here without copying
/// a byte.
pub fn resolve_sentence(sentence: &[genie_nlp::Symbol]) -> Vec<&'static str> {
    let interner: &'static genie_nlp::Interner = genie_nlp::intern::shared();
    sentence.iter().map(|&s| interner.resolve(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_strs_splits_on_whitespace() {
        let ex = ParserExample::from_strs("post hello", "now => @com.twitter.post ( )");
        assert_eq!(ex.sentence.len(), 2);
        assert_eq!(ex.program.len(), 5);
        assert_eq!(ex.sentence_text(), "post hello");
        assert_eq!(resolve_sentence(&ex.sentence), vec!["post", "hello"]);
    }
}
