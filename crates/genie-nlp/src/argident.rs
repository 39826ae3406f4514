//! Rule-based argument identification and normalization (§2.1).
//!
//! "Arguments such as numbers, dates and times in the input sentence are
//! identified and normalized using a rule-based algorithm; they are replaced
//! as named constants of the form NUMBER_0, DATE_1, etc. String and named
//! entity parameters instead are represented using multiple tokens, one for
//! each word [...], this allows the words to be copied from the input
//! sentence individually."
//!
//! [`identify_arguments`] takes a tokenized sentence and produces the
//! preprocessed sentence (with named constants substituted) plus the table
//! mapping each named constant back to its normalized value. The same table
//! is applied to the program tokens so that the model learns to emit
//! `NUMBER_0` instead of the literal number.

/// The normalized value of an identified argument span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgumentValue {
    /// A plain number.
    Number(f64),
    /// A measure: amount plus unit symbol (`60`, `F`).
    Measure(f64, String),
    /// A time of day (hour, minute).
    Time(u8, u8),
    /// A relative or absolute date, kept as a normalized phrase
    /// (`today`, `tomorrow`, `start_of_week`).
    Date(String),
    /// A currency amount and code.
    Currency(f64, String),
    /// A quoted free-form string (the tokens inside the quotes).
    QuotedString(Vec<String>),
    /// A username (`@handle`).
    Username(String),
    /// A hashtag (`#topic`).
    Hashtag(String),
    /// A URL.
    Url(String),
    /// An email address.
    EmailAddress(String),
    /// A phone number.
    PhoneNumber(String),
    /// A file path name.
    PathName(String),
}

impl ArgumentValue {
    /// The placeholder prefix used for this kind of argument
    /// (`NUMBER`, `DATE`, …).
    pub fn placeholder_prefix(&self) -> &'static str {
        match self {
            ArgumentValue::Number(_) => "NUMBER",
            ArgumentValue::Measure(..) => "MEASURE",
            ArgumentValue::Time(..) => "TIME",
            ArgumentValue::Date(_) => "DATE",
            ArgumentValue::Currency(..) => "CURRENCY",
            ArgumentValue::QuotedString(_) => "QUOTED_STRING",
            ArgumentValue::Username(_) => "USERNAME",
            ArgumentValue::Hashtag(_) => "HASHTAG",
            ArgumentValue::Url(_) => "URL",
            ArgumentValue::EmailAddress(_) => "EMAIL_ADDRESS",
            ArgumentValue::PhoneNumber(_) => "PHONE_NUMBER",
            ArgumentValue::PathName(_) => "PATH_NAME",
        }
    }
}

/// An identified span: which placeholder replaced it and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgumentSpan {
    /// The placeholder token (`NUMBER_0`, `DATE_1`, …).
    pub placeholder: String,
    /// The normalized value.
    pub value: ArgumentValue,
    /// The original surface tokens of the span.
    pub surface: Vec<String>,
}

/// The result of preprocessing a sentence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Preprocessed {
    /// The sentence tokens with identified spans replaced by placeholders.
    pub tokens: Vec<String>,
    /// The identified spans in order of appearance.
    pub spans: Vec<ArgumentSpan>,
}

impl Preprocessed {
    /// Look up a span by placeholder token.
    pub fn span(&self, placeholder: &str) -> Option<&ArgumentSpan> {
        self.spans.iter().find(|s| s.placeholder == placeholder)
    }
}

const NUMBER_WORDS: &[(&str, f64)] = &[
    ("zero", 0.0),
    ("one", 1.0),
    ("two", 2.0),
    ("three", 3.0),
    ("four", 4.0),
    ("five", 5.0),
    ("six", 6.0),
    ("seven", 7.0),
    ("eight", 8.0),
    ("nine", 9.0),
    ("ten", 10.0),
    ("eleven", 11.0),
    ("twelve", 12.0),
    ("twenty", 20.0),
    ("thirty", 30.0),
    ("fifty", 50.0),
    ("hundred", 100.0),
    ("thousand", 1000.0),
];

const DATE_PHRASES: &[&str] = &[
    "today",
    "tomorrow",
    "yesterday",
    "tonight",
    "monday",
    "tuesday",
    "wednesday",
    "thursday",
    "friday",
    "saturday",
    "sunday",
];

const UNIT_SUFFIXES: &[&str] = &[
    "f", "c", "km", "mi", "kb", "mb", "gb", "tb", "bpm", "kg", "lb", "ft", "in", "m", "h", "min",
    "s", "day", "days", "week", "weeks", "hour", "hours", "minute", "minutes",
];

/// Identify and normalize argument spans in a tokenized sentence.
///
/// Counters are per prefix, so a sentence with two numbers and a date yields
/// `NUMBER_0`, `NUMBER_1`, `DATE_0`.
pub fn identify_arguments(tokens: &[String]) -> Preprocessed {
    let mut out = Preprocessed::default();
    let mut counters: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let mut i = 0;
    while i < tokens.len() {
        let token = &tokens[i];
        // Quoted strings: consume until the closing quote.
        if token == "\"" {
            if let Some(close) = tokens[i + 1..].iter().position(|t| t == "\"") {
                let inner: Vec<String> = tokens[i + 1..i + 1 + close].to_vec();
                let surface = tokens[i..=i + 1 + close].to_vec();
                push_span(
                    &mut out,
                    &mut counters,
                    ArgumentValue::QuotedString(inner),
                    surface,
                );
                i += close + 2;
                continue;
            }
        }
        if let Some(value) = classify_token(token, tokens.get(i + 1)) {
            let consumed = match &value {
                ArgumentValue::Measure(..)
                    if !token_has_unit_suffix(token) && tokens.get(i + 1).is_some() =>
                {
                    2
                }
                _ => 1,
            };
            let surface = tokens[i..i + consumed].to_vec();
            push_span(&mut out, &mut counters, value, surface);
            i += consumed;
            continue;
        }
        out.tokens.push(token.clone());
        i += 1;
    }
    out
}

fn push_span(
    out: &mut Preprocessed,
    counters: &mut std::collections::BTreeMap<&'static str, usize>,
    value: ArgumentValue,
    surface: Vec<String>,
) {
    let prefix = value.placeholder_prefix();
    let index = counters.entry(prefix).or_insert(0);
    let placeholder = format!("{prefix}_{index}");
    *index += 1;
    out.tokens.push(placeholder.clone());
    out.spans.push(ArgumentSpan {
        placeholder,
        value,
        surface,
    });
}

fn token_has_unit_suffix(token: &str) -> bool {
    let digits_end = token
        .char_indices()
        .take_while(|(_, c)| c.is_ascii_digit() || *c == '.')
        .map(|(i, c)| i + c.len_utf8())
        .last()
        .unwrap_or(0);
    digits_end > 0 && digits_end < token.len()
}

fn classify_token(token: &str, next: Option<&String>) -> Option<ArgumentValue> {
    if let Some(handle) = token.strip_prefix('@') {
        if !handle.is_empty() {
            return Some(ArgumentValue::Username(handle.to_owned()));
        }
    }
    if let Some(tag) = token.strip_prefix('#') {
        if !tag.is_empty() {
            return Some(ArgumentValue::Hashtag(tag.to_owned()));
        }
    }
    if token.contains("://") || token.starts_with("www.") {
        return Some(ArgumentValue::Url(token.to_owned()));
    }
    if token.contains('@') && token.contains('.') {
        return Some(ArgumentValue::EmailAddress(token.to_owned()));
    }
    if DATE_PHRASES.contains(&token) {
        return Some(ArgumentValue::Date(token.to_owned()));
    }
    // Phone numbers: +1..., or long digit strings with dashes.
    if token.starts_with('+') && token[1..].chars().all(|c| c.is_ascii_digit()) && token.len() > 7 {
        return Some(ArgumentValue::PhoneNumber(token.to_owned()));
    }
    // Times: 8:30, 8:30am, 18:05
    if let Some(time) = parse_time(token) {
        return Some(ArgumentValue::Time(time.0, time.1));
    }
    // Currency: $10, 10usd
    if let Some(amount) = token.strip_prefix('$').and_then(|t| t.parse::<f64>().ok()) {
        return Some(ArgumentValue::Currency(amount, "USD".to_owned()));
    }
    // File names.
    if let Some((stem, ext)) = token.rsplit_once('.') {
        if !stem.is_empty()
            && !stem.chars().all(|c| c.is_ascii_digit())
            && ext.len() <= 4
            && !ext.is_empty()
            && ext.chars().all(|c| c.is_ascii_alphanumeric())
            && !token.contains('@')
        {
            return Some(ArgumentValue::PathName(token.to_owned()));
        }
    }
    // Numbers with attached unit: 60f, 5gb, 500bpm.
    if token_has_unit_suffix(token) {
        let digits_end = token
            .char_indices()
            .take_while(|(_, c)| c.is_ascii_digit() || *c == '.')
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        let (digits, suffix) = token.split_at(digits_end);
        if UNIT_SUFFIXES.contains(&suffix) {
            if let Ok(amount) = digits.parse::<f64>() {
                return Some(ArgumentValue::Measure(amount, suffix.to_owned()));
            }
        }
        if suffix.eq_ignore_ascii_case("am") || suffix.eq_ignore_ascii_case("pm") {
            if let Ok(hour) = digits.parse::<f64>() {
                let hour = hour as u8 % 12
                    + if suffix.eq_ignore_ascii_case("pm") {
                        12
                    } else {
                        0
                    };
                return Some(ArgumentValue::Time(hour, 0));
            }
        }
        return None;
    }
    // Bare numbers (digits or commas), possibly followed by a unit word.
    let cleaned = token.replace(',', "");
    if let Ok(amount) = cleaned.parse::<f64>() {
        if let Some(next) = next {
            if UNIT_SUFFIXES.contains(&next.as_str()) {
                return Some(ArgumentValue::Measure(amount, next.clone()));
            }
        }
        return Some(ArgumentValue::Number(amount));
    }
    // Number words ("five").
    if let Some((_, amount)) = NUMBER_WORDS.iter().find(|(w, _)| *w == token) {
        return Some(ArgumentValue::Number(*amount));
    }
    None
}

fn parse_time(token: &str) -> Option<(u8, u8)> {
    let (clock, suffix) = if let Some(stripped) = token.strip_suffix("am") {
        (stripped, 0u8)
    } else if let Some(stripped) = token.strip_suffix("pm") {
        (stripped, 12u8)
    } else {
        (token, 255u8)
    };
    let (h, m) = clock.split_once(':')?;
    let hour: u8 = h.parse().ok()?;
    let minute: u8 = m.parse().ok()?;
    if hour > 23 || minute > 59 {
        return None;
    }
    let hour = match suffix {
        0 => hour % 12,
        12 => hour % 12 + 12,
        _ => hour,
    };
    Some((hour, minute))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn prep(sentence: &str) -> Preprocessed {
        identify_arguments(&tokenize(sentence))
    }

    #[test]
    fn numbers_and_measures_become_placeholders() {
        let p = prep("notify me when the temperature drops below 60f or above 100");
        assert!(p.tokens.contains(&"MEASURE_0".to_owned()));
        assert!(p.tokens.contains(&"NUMBER_0".to_owned()));
        assert_eq!(p.spans.len(), 2);
        assert_eq!(
            p.span("MEASURE_0").unwrap().value,
            ArgumentValue::Measure(60.0, "f".to_owned())
        );
    }

    #[test]
    fn quoted_strings_are_one_span() {
        let p = prep("post \"hello brave world\" on twitter");
        assert_eq!(p.tokens, vec!["post", "QUOTED_STRING_0", "on", "twitter"]);
        match &p.spans[0].value {
            ArgumentValue::QuotedString(words) => {
                assert_eq!(words, &["hello", "brave", "world"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn times_dates_and_handles() {
        let p = prep("at 8:30am tomorrow remind @alice about #standup");
        assert!(p.tokens.contains(&"TIME_0".to_owned()));
        assert!(p.tokens.contains(&"DATE_0".to_owned()));
        assert!(p.tokens.contains(&"USERNAME_0".to_owned()));
        assert!(p.tokens.contains(&"HASHTAG_0".to_owned()));
        assert_eq!(p.span("TIME_0").unwrap().value, ArgumentValue::Time(8, 30));
    }

    #[test]
    fn urls_emails_files_and_phones() {
        let p = prep("send report.pdf to bob@example.com and text +16505551234 the link https://example.com/a");
        assert!(p.tokens.contains(&"PATH_NAME_0".to_owned()));
        assert!(p.tokens.contains(&"EMAIL_ADDRESS_0".to_owned()));
        assert!(p.tokens.contains(&"PHONE_NUMBER_0".to_owned()));
        assert!(p.tokens.contains(&"URL_0".to_owned()));
    }

    #[test]
    fn counters_are_per_prefix() {
        let p = prep("between 5 and 10 dollars on friday");
        let numbers: Vec<&String> = p
            .tokens
            .iter()
            .filter(|t| t.starts_with("NUMBER_"))
            .collect();
        assert_eq!(numbers, vec!["NUMBER_0", "NUMBER_1"]);
        assert!(p.tokens.contains(&"DATE_0".to_owned()));
    }

    #[test]
    fn plain_sentences_are_untouched() {
        let p = prep("lock the front door");
        assert!(p.spans.is_empty());
        assert_eq!(p.tokens, tokenize("lock the front door"));
    }

    #[test]
    fn number_words_are_recognized() {
        let p = prep("play five songs");
        assert_eq!(
            p.span("NUMBER_0").unwrap().value,
            ArgumentValue::Number(5.0)
        );
    }

    #[test]
    fn currency_amounts() {
        let p = prep("alert me when the ride costs more than $25");
        assert_eq!(
            p.span("CURRENCY_0").unwrap().value,
            ArgumentValue::Currency(25.0, "USD".to_owned())
        );
    }
}
