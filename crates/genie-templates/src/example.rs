//! Synthesized (utterance, program) pairs.

use thingtalk::Program;

use crate::intern::{Interner, TokenStream};

/// Structural flags of a synthesized example, used to report the dataset
/// characteristics of Fig. 7 and to stratify sampling for paraphrasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExampleFlags {
    /// Uses exactly one skill function.
    pub primitive: bool,
    /// Has at least one filter predicate.
    pub filter: bool,
    /// Passes an output parameter into an input parameter.
    pub param_passing: bool,
    /// Is event driven (stream is not `now`).
    pub event_driven: bool,
    /// Uses a TT+A aggregation.
    pub aggregation: bool,
}

impl ExampleFlags {
    /// Compute the flags of a program.
    pub fn of(program: &Program) -> Self {
        ExampleFlags {
            primitive: !program.is_compound(),
            filter: program.has_filter(),
            param_passing: program.uses_param_passing(),
            event_driven: program.is_event_driven(),
            aggregation: program.has_aggregation(),
        }
    }

    /// The Fig. 7 bucket this example falls into.
    pub fn bucket(&self) -> &'static str {
        if self.primitive {
            if self.filter {
                "primitive + filters"
            } else {
                "primitive commands"
            }
        } else if self.param_passing && self.filter {
            "compound + param passing + filters"
        } else if self.param_passing {
            "compound + parameter passing"
        } else if self.filter {
            "compound + filters"
        } else {
            "compound commands"
        }
    }
}

/// A synthesized sentence with its program, produced by the template engine.
///
/// The utterance is an interned [`TokenStream`]; render it with the arena
/// that produced it ([`SynthesizedExample::utterance_text`]) — by default
/// [`crate::intern::shared`]. The construct label is `&'static str` (labels
/// come from the rule registry), so cloning an example never allocates for
/// metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizedExample {
    /// The natural-language utterance as interned tokens.
    pub utterance: TokenStream,
    /// The corresponding ThingTalk program (already canonicalizable).
    pub program: Program,
    /// The derivation depth at which this example was produced.
    pub depth: usize,
    /// The construct template that produced it (for statistics and
    /// paraphrase sampling).
    pub construct: &'static str,
    /// Structural flags.
    pub flags: ExampleFlags,
}

impl SynthesizedExample {
    /// Create an example, computing its flags from the program.
    pub fn new(
        utterance: TokenStream,
        program: Program,
        depth: usize,
        construct: &'static str,
    ) -> Self {
        let flags = ExampleFlags::of(&program);
        SynthesizedExample {
            utterance,
            program,
            depth,
            construct,
            flags,
        }
    }

    /// Render the utterance through the arena that produced it.
    pub fn utterance_text(&self, interner: &Interner) -> String {
        interner.render(&self.utterance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thingtalk::syntax::parse_program;

    #[test]
    fn buckets_match_fig7_categories() {
        let primitive = parse_program("now => @com.gmail.inbox() => notify").unwrap();
        assert_eq!(ExampleFlags::of(&primitive).bucket(), "primitive commands");

        let filtered =
            parse_program("now => @com.gmail.inbox() filter sender == \"alice\" => notify")
                .unwrap();
        assert_eq!(ExampleFlags::of(&filtered).bucket(), "primitive + filters");

        let compound = parse_program(
            "monitor (@com.gmail.inbox()) => @com.slack.send(channel = \"#general\"^^tt:slack_channel, message = \"mail\")",
        )
        .unwrap();
        assert_eq!(ExampleFlags::of(&compound).bucket(), "compound commands");

        let passing = parse_program(
            "monitor (@com.gmail.inbox()) => @com.slack.send(channel = \"#general\"^^tt:slack_channel, message = snippet)",
        )
        .unwrap();
        assert_eq!(
            ExampleFlags::of(&passing).bucket(),
            "compound + parameter passing"
        );

        let passing_filtered = parse_program(
            "monitor (@com.gmail.inbox() filter is_unread == true) => @com.slack.send(channel = \"#g\"^^tt:slack_channel, message = snippet)",
        )
        .unwrap();
        assert_eq!(
            ExampleFlags::of(&passing_filtered).bucket(),
            "compound + param passing + filters"
        );
    }

    #[test]
    fn example_construction_computes_flags() {
        let program =
            parse_program("now => agg count of (@com.dropbox.list_folder()) => notify").unwrap();
        let interner = crate::intern::shared();
        let example = SynthesizedExample::new(
            interner.stream_of("how many files are in my dropbox"),
            program,
            2,
            "aggregation",
        );
        assert!(example.flags.aggregation);
        assert!(example.flags.primitive);
        assert_eq!(example.construct, "aggregation");
    }
}
