//! Primitive templates (Table 1 of the paper).
//!
//! A primitive template maps a natural-language utterance — a noun phrase,
//! verb phrase, or when phrase, possibly with `$parameter` placeholders — to
//! a code fragment using one skill function, together with preset input
//! parameters. The template engine in `genie-templates` combines primitive
//! templates with construct templates to synthesize full sentences and
//! programs.

use std::fmt;

use thingtalk::Value;

/// The grammar category of a primitive template's utterance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhraseCategory {
    /// A noun phrase describing the data a query returns ("my dropbox
    /// files", "the latest xkcd comic"). Noun phrases compose as input
    /// parameters of other phrases.
    NounPhrase,
    /// A verb phrase describing a query or action ("post $status on
    /// twitter", "translate $text").
    VerbPhrase,
    /// A when phrase describing an event ("when I receive an email", "when
    /// it starts raining").
    WhenPhrase,
}

impl PhraseCategory {
    /// A short label used in debugging output and dataset statistics.
    pub fn label(self) -> &'static str {
        match self {
            PhraseCategory::NounPhrase => "np",
            PhraseCategory::VerbPhrase => "vp",
            PhraseCategory::WhenPhrase => "wp",
        }
    }
}

impl fmt::Display for PhraseCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A developer-supplied primitive template for one skill function.
///
/// The utterance may contain `$name` placeholders; each placeholder refers
/// to an input parameter of the function and will be filled with a sampled
/// value (or left as a slot) during synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveTemplate {
    /// The skill class, e.g. `com.dropbox`.
    pub class: String,
    /// The function within the class.
    pub function: String,
    /// The grammar category of the utterance.
    pub category: PhraseCategory,
    /// The utterance, with `$param` placeholders.
    pub utterance: String,
    /// Input parameters that this template fixes to constant values (e.g.
    /// `order_by = enum:modified_time_decreasing` for "my dropbox files that
    /// changed most recently").
    pub preset_params: Vec<(String, Value)>,
}

impl PrimitiveTemplate {
    /// Create a template with no preset parameters.
    pub fn new(
        class: impl Into<String>,
        function: impl Into<String>,
        category: PhraseCategory,
        utterance: impl Into<String>,
    ) -> Self {
        PrimitiveTemplate {
            class: class.into(),
            function: function.into(),
            category,
            utterance: utterance.into(),
            preset_params: Vec::new(),
        }
    }

    /// Add a preset input parameter (builder style).
    pub fn with_preset(mut self, name: impl Into<String>, value: Value) -> Self {
        self.preset_params.push((name.into(), value));
        self
    }

    /// The placeholder names appearing in the utterance (without the `$`).
    pub fn placeholders(&self) -> Vec<String> {
        let mut out = Vec::new();
        for word in self.utterance.split_whitespace() {
            if let Some(name) = word.strip_prefix('$') {
                let name: String = name
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && !out.contains(&name) {
                    out.push(name);
                }
            }
        }
        out
    }

    /// Substitute the placeholders with rendered values, producing a
    /// natural-language fragment.
    pub fn instantiate(&self, values: &[(String, String)]) -> String {
        let mut out = String::new();
        for (i, word) in self.utterance.split_whitespace().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            if let Some(name) = word.strip_prefix('$') {
                let clean: String = name
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                let suffix: String = name.chars().skip(clean.len()).collect();
                match values.iter().find(|(n, _)| *n == clean) {
                    Some((_, rendered)) => {
                        out.push_str(rendered);
                        out.push_str(&suffix);
                    }
                    None => {
                        out.push_str(word);
                    }
                }
            } else {
                out.push_str(word);
            }
        }
        out
    }
}

/// Shorthand constructors used by the builtin skill modules.
pub(crate) mod short {
    use super::*;

    /// Noun-phrase template.
    pub fn np(class: &str, function: &str, utterance: &str) -> PrimitiveTemplate {
        PrimitiveTemplate::new(class, function, PhraseCategory::NounPhrase, utterance)
    }

    /// Verb-phrase template.
    pub fn vp(class: &str, function: &str, utterance: &str) -> PrimitiveTemplate {
        PrimitiveTemplate::new(class, function, PhraseCategory::VerbPhrase, utterance)
    }

    /// When-phrase template.
    pub fn wp(class: &str, function: &str, utterance: &str) -> PrimitiveTemplate {
        PrimitiveTemplate::new(class, function, PhraseCategory::WhenPhrase, utterance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholders_are_extracted_in_order() {
        let t = PrimitiveTemplate::new(
            "com.dropbox",
            "list_folder",
            PhraseCategory::NounPhrase,
            "files in my dropbox folder $folder_name sorted by $order_by",
        );
        assert_eq!(t.placeholders(), vec!["folder_name", "order_by"]);
    }

    #[test]
    fn instantiate_substitutes_placeholders() {
        let t = PrimitiveTemplate::new(
            "com.twitter",
            "post",
            PhraseCategory::VerbPhrase,
            "tweet $status",
        );
        let s = t.instantiate(&[("status".to_owned(), "hello world".to_owned())]);
        assert_eq!(s, "tweet hello world");
    }

    #[test]
    fn instantiate_keeps_unbound_placeholders() {
        let t = PrimitiveTemplate::new(
            "com.twitter",
            "post",
            PhraseCategory::VerbPhrase,
            "tweet $status",
        );
        assert_eq!(t.instantiate(&[]), "tweet $status");
    }

    #[test]
    fn preset_params_are_recorded() {
        let t = PrimitiveTemplate::new(
            "com.dropbox",
            "list_folder",
            PhraseCategory::NounPhrase,
            "my dropbox files that changed most recently",
        )
        .with_preset("order_by", Value::Enum("modified_time_decreasing".into()));
        assert_eq!(t.preset_params.len(), 1);
        assert!(t.placeholders().is_empty());
    }

    #[test]
    fn category_labels() {
        assert_eq!(PhraseCategory::NounPhrase.label(), "np");
        assert_eq!(PhraseCategory::VerbPhrase.to_string(), "vp");
        assert_eq!(PhraseCategory::WhenPhrase.label(), "wp");
    }
}
