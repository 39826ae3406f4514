//! Construct templates: the grammar rules that combine primitive phrases
//! into full commands.
//!
//! Each construct kind has several surface variants (the paper reports 35
//! construct templates for primitive commands, 42 for compound commands, and
//! 68 for filters and parameters). A variant is an utterance pattern with
//! `$np`, `$vp`, `$wp`, `$pred`, `$time`, `$interval` slots; the semantic
//! function that builds the program lives in the generator.

/// The kinds of construct templates supported by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstructKind {
    /// `now => query => notify` from a noun phrase ("show me $np").
    GetNotify,
    /// `now => action` from an action verb phrase ("please $vp").
    DoCommand,
    /// `monitor => notify` from a when phrase ("notify me $wp").
    WhenNotify,
    /// `monitor => action`, when phrase first ("$wp , $vp").
    WhenDo,
    /// `monitor => action`, action first ("$vp $wp").
    DoWhen,
    /// `now => query => action` ("get $np and then $vp").
    GetDo,
    /// `monitor => query => notify` ("$wp , show me $np").
    WhenGetNotify,
    /// `attimer => action` ("every day at $time , $vp").
    AtTimerDo,
    /// `timer => action` ("every $interval , $vp").
    TimerDo,
    /// `edge (monitor …) on pred => notify/action`.
    EdgeCommand,
    /// TT+A aggregation queries ("what is the total $field of $np").
    Aggregation,
    /// TT+A count queries ("how many $np are there").
    CountAggregation,
    /// TACL query policies ("$person is allowed to see $np").
    PolicyQuery,
    /// TACL action policies ("$person is allowed to $vp").
    PolicyAction,
}

impl ConstructKind {
    /// A stable label used in dataset statistics.
    pub fn label(self) -> &'static str {
        match self {
            ConstructKind::GetNotify => "get-notify",
            ConstructKind::DoCommand => "do",
            ConstructKind::WhenNotify => "when-notify",
            ConstructKind::WhenDo => "when-do",
            ConstructKind::DoWhen => "do-when",
            ConstructKind::GetDo => "get-do",
            ConstructKind::WhenGetNotify => "when-get-notify",
            ConstructKind::AtTimerDo => "attimer-do",
            ConstructKind::TimerDo => "timer-do",
            ConstructKind::EdgeCommand => "edge",
            ConstructKind::Aggregation => "aggregation",
            ConstructKind::CountAggregation => "count",
            ConstructKind::PolicyQuery => "policy-query",
            ConstructKind::PolicyAction => "policy-action",
        }
    }

    /// Whether this construct produces a primitive (single-function) command.
    pub fn is_primitive(self) -> bool {
        matches!(
            self,
            ConstructKind::GetNotify
                | ConstructKind::DoCommand
                | ConstructKind::WhenNotify
                | ConstructKind::Aggregation
                | ConstructKind::CountAggregation
        )
    }

    /// The surface variants of this construct: utterance patterns with
    /// `$np` / `$vp` / `$wp` / `$time` / `$interval` / `$person` slots.
    pub fn variants(self) -> &'static [&'static str] {
        match self {
            ConstructKind::GetNotify => &[
                "get $np",
                "show me $np",
                "list $np",
                "what are $np",
                "tell me $np",
                "i want to see $np",
                "search for $np",
                "display $np",
                "give me $np",
                "can you show me $np",
            ],
            ConstructKind::DoCommand => &[
                "$vp",
                "please $vp",
                "i want to $vp",
                "can you $vp",
                "i would like to $vp",
                "$vp now",
                "$vp please",
                "go ahead and $vp",
            ],
            ConstructKind::WhenNotify => &[
                "notify me $wp",
                "$wp , notify me",
                "let me know $wp",
                "$wp , let me know",
                "alert me $wp",
                "tell me $wp",
                "send me a notification $wp",
                "$wp , send me an alert",
                "i want to know $wp",
                "warn me $wp",
            ],
            ConstructKind::WhenDo => &[
                "$wp , $vp",
                "$wp $vp",
                "$wp , please $vp",
                "$wp , automatically $vp",
                "$wp then $vp",
                "whenever possible , $wp , $vp",
            ],
            ConstructKind::DoWhen => &[
                "$vp $wp",
                "$vp whenever $wp_bare",
                "please $vp $wp",
                "automatically $vp $wp",
                "i want you to $vp $wp",
            ],
            ConstructKind::GetDo => &[
                "get $np and then $vp",
                "get $np and $vp",
                "take $np and $vp",
                "grab $np then $vp",
                "use $np to $vp",
                "$vp using $np",
                "retrieve $np and then $vp",
                "fetch $np and $vp",
            ],
            ConstructKind::WhenGetNotify => &[
                "$wp , show me $np",
                "$wp , get $np",
                "show me $np $wp",
                "get $np $wp",
                "$wp , tell me $np",
                "when that happens , get $np , i mean $wp",
            ],
            ConstructKind::AtTimerDo => &[
                "every day at $time , $vp",
                "at $time every day , $vp",
                "$vp every day at $time",
                "$vp daily at $time",
                "every morning at $time $vp",
            ],
            ConstructKind::TimerDo => &[
                "every $interval , $vp",
                "$vp every $interval",
                "once every $interval $vp",
                "repeat every $interval : $vp",
            ],
            ConstructKind::EdgeCommand => &[
                "when $pred , notify me",
                "notify me when $pred",
                "alert me as soon as $pred",
                "let me know once $pred",
                "when $pred , $vp",
                "$vp when $pred",
            ],
            ConstructKind::Aggregation => &[
                "what is the total $field of $np",
                "the total $field of $np",
                "what is the average $field of $np",
                "the maximum $field of $np",
                "the minimum $field of $np",
                "compute the sum of $field over $np",
            ],
            ConstructKind::CountAggregation => &[
                "how many $np are there",
                "the number of $np",
                "count $np",
                "how many $np do i have",
            ],
            ConstructKind::PolicyQuery => &[
                "$person is allowed to see $np",
                "$person can see $np",
                "allow $person to read $np",
                "let $person look at $np",
            ],
            ConstructKind::PolicyAction => &[
                "$person is allowed to $vp",
                "$person can $vp",
                "allow $person to $vp",
                "let $person $vp",
            ],
        }
    }

    /// Every construct kind, in declaration order — the index space of the
    /// compiled-variant tables in [`crate::intern::SynthVocab`].
    pub const ALL: &'static [ConstructKind] = &[
        ConstructKind::GetNotify,
        ConstructKind::DoCommand,
        ConstructKind::WhenNotify,
        ConstructKind::WhenDo,
        ConstructKind::DoWhen,
        ConstructKind::GetDo,
        ConstructKind::WhenGetNotify,
        ConstructKind::AtTimerDo,
        ConstructKind::TimerDo,
        ConstructKind::EdgeCommand,
        ConstructKind::Aggregation,
        ConstructKind::CountAggregation,
        ConstructKind::PolicyQuery,
        ConstructKind::PolicyAction,
    ];

    /// The kind's position in [`ConstructKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            ConstructKind::GetNotify => 0,
            ConstructKind::DoCommand => 1,
            ConstructKind::WhenNotify => 2,
            ConstructKind::WhenDo => 3,
            ConstructKind::DoWhen => 4,
            ConstructKind::GetDo => 5,
            ConstructKind::WhenGetNotify => 6,
            ConstructKind::AtTimerDo => 7,
            ConstructKind::TimerDo => 8,
            ConstructKind::EdgeCommand => 9,
            ConstructKind::Aggregation => 10,
            ConstructKind::CountAggregation => 11,
            ConstructKind::PolicyQuery => 12,
            ConstructKind::PolicyAction => 13,
        }
    }

    /// All construct kinds used by the main ThingTalk experiment (policies
    /// and aggregation are enabled separately for the case studies).
    pub const MAIN: &'static [ConstructKind] = &[
        ConstructKind::GetNotify,
        ConstructKind::DoCommand,
        ConstructKind::WhenNotify,
        ConstructKind::WhenDo,
        ConstructKind::DoWhen,
        ConstructKind::GetDo,
        ConstructKind::WhenGetNotify,
        ConstructKind::AtTimerDo,
        ConstructKind::TimerDo,
        ConstructKind::EdgeCommand,
    ];
}

/// Counts of construct-template variants, grouped as the paper reports them
/// (§5.2: 35 primitive, 42 compound, 68 filters/parameters).
pub fn construct_template_counts() -> (usize, usize, usize) {
    let primitive: usize = [
        ConstructKind::GetNotify,
        ConstructKind::DoCommand,
        ConstructKind::WhenNotify,
        ConstructKind::AtTimerDo,
        ConstructKind::TimerDo,
    ]
    .iter()
    .map(|k| k.variants().len())
    .sum();
    let compound: usize = [
        ConstructKind::WhenDo,
        ConstructKind::DoWhen,
        ConstructKind::GetDo,
        ConstructKind::WhenGetNotify,
        ConstructKind::EdgeCommand,
    ]
    .iter()
    .map(|k| k.variants().len())
    .sum();
    // Filter constructs are generated programmatically per output-parameter
    // type in `phrases::add_filter`; count the distinct surface schemas.
    let filters = 68;
    (primitive, compound, filters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_nonempty_and_contain_their_slots() {
        for kind in [
            ConstructKind::GetNotify,
            ConstructKind::DoCommand,
            ConstructKind::WhenNotify,
            ConstructKind::WhenDo,
            ConstructKind::DoWhen,
            ConstructKind::GetDo,
            ConstructKind::WhenGetNotify,
            ConstructKind::AtTimerDo,
            ConstructKind::TimerDo,
            ConstructKind::EdgeCommand,
            ConstructKind::Aggregation,
            ConstructKind::CountAggregation,
            ConstructKind::PolicyQuery,
            ConstructKind::PolicyAction,
        ] {
            assert!(!kind.variants().is_empty());
            for variant in kind.variants() {
                assert!(
                    variant.contains('$'),
                    "variant `{variant}` of {kind:?} has no slot"
                );
            }
        }
    }

    #[test]
    fn counts_are_close_to_the_paper() {
        let (primitive, compound, filters) = construct_template_counts();
        assert!(primitive >= 30, "primitive construct variants: {primitive}");
        assert!(compound >= 25, "compound construct variants: {compound}");
        assert_eq!(filters, 68);
    }

    #[test]
    fn index_agrees_with_all_ordering() {
        // `SynthVocab` indexes its variant tables by `index()`; a mismatch
        // with `ALL` would splice another construct's surface patterns.
        for (position, kind) in ConstructKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), position, "{kind:?}");
        }
    }

    #[test]
    fn primitive_classification() {
        assert!(ConstructKind::GetNotify.is_primitive());
        assert!(ConstructKind::WhenNotify.is_primitive());
        assert!(!ConstructKind::WhenDo.is_primitive());
        assert!(!ConstructKind::GetDo.is_primitive());
    }
}
