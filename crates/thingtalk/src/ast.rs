//! The ThingTalk program grammar (Fig. 5), plus the TT+A aggregation
//! extension (§6.3).
//!
//! A program is `stream => query? => action`. The stream clause specifies the
//! evaluation of the program as a continuous stream of events; the optional
//! query clause specifies what data should be retrieved when the events
//! occur; the action clause specifies what the program should do. Queries can
//! be filtered with boolean predicates and joined with parameter passing;
//! streams can be timers, monitors of queries, or edge filters over streams.
//!
//! # Shared subtrees
//!
//! Query, stream, and action subtrees are [`Arc`]-backed so the synthesis
//! engine can compose thousands of programs from a pool of phrase
//! derivations without deep-cloning the fragments: wrapping a query in a
//! filter, a monitor, or a program is a reference-count bump. Mutation goes
//! through [`Arc::make_mut`], which clones lazily only when a subtree is
//! actually shared (copy-on-write), so `&mut` traversals like
//! [`Program::invocations_mut`] keep working unchanged for callers.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// A reference to a skill-library function: class name + function name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionRef {
    /// The class (skill) name, e.g. `com.twitter`.
    pub class: String,
    /// The function name within the class, e.g. `timeline`.
    pub function: String,
}

impl FunctionRef {
    /// Create a function reference.
    pub fn new(class: impl Into<String>, function: impl Into<String>) -> Self {
        FunctionRef {
            class: class.into(),
            function: function.into(),
        }
    }

    /// Parse a `@class.function` token (without the leading `@`), splitting
    /// at the last dot.
    pub fn parse_qualified(qualified: &str) -> Option<Self> {
        let (class, function) = qualified.rsplit_once('.')?;
        if class.is_empty() || function.is_empty() {
            return None;
        }
        Some(FunctionRef::new(class, function))
    }
}

impl fmt::Display for FunctionRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}.{}", self.class, self.function)
    }
}

/// A keyword input-parameter binding `name = value` in a function invocation.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct InputParam {
    /// The input parameter name.
    pub name: String,
    /// The bound value: a constant, a [`Value::VarRef`] for parameter
    /// passing, `$event`, or `$?`.
    pub value: Value,
}

impl InputParam {
    /// Create an input parameter binding.
    pub fn new(name: impl Into<String>, value: Value) -> Self {
        InputParam {
            name: name.into(),
            value,
        }
    }
}

impl fmt::Display for InputParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.value)
    }
}

/// An invocation of a skill-library function with keyword parameters.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Invocation {
    /// The invoked function.
    pub function: FunctionRef,
    /// Keyword input-parameter bindings.
    pub in_params: Vec<InputParam>,
}

impl Invocation {
    /// Create an invocation with no parameters.
    pub fn new(class: impl Into<String>, function: impl Into<String>) -> Self {
        Invocation {
            function: FunctionRef::new(class, function),
            in_params: Vec::new(),
        }
    }

    /// Add a keyword parameter (builder style).
    pub fn with_param(mut self, name: impl Into<String>, value: Value) -> Self {
        self.in_params.push(InputParam::new(name, value));
        self
    }

    /// Look up a bound input parameter by name.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.in_params
            .iter()
            .find(|p| p.name == name)
            .map(|p| &p.value)
    }

    /// Names of all parameters bound by parameter passing (var references).
    pub fn passed_params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.in_params.iter().filter_map(|p| match &p.value {
            Value::VarRef(source) => Some((p.name.as_str(), source.as_str())),
            _ => None,
        })
    }
}

impl fmt::Display for Invocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params: Vec<String> = self.in_params.iter().map(|p| p.to_string()).collect();
        write!(f, "{}({})", self.function, params.join(", "))
    }
}

/// Comparison and containment operators usable in filter predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum CompareOp {
    Eq,
    Neq,
    Gt,
    Lt,
    Geq,
    Leq,
    /// Array containment: the output array contains the given element.
    Contains,
    /// Substring containment.
    Substr,
    StartsWith,
    EndsWith,
    /// Membership of the output value in a constant array.
    InArray,
}

impl CompareOp {
    /// The surface-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "==",
            CompareOp::Neq => "!=",
            CompareOp::Gt => ">",
            CompareOp::Lt => "<",
            CompareOp::Geq => ">=",
            CompareOp::Leq => "<=",
            CompareOp::Contains => "contains",
            CompareOp::Substr => "substr",
            CompareOp::StartsWith => "starts_with",
            CompareOp::EndsWith => "ends_with",
            CompareOp::InArray => "in_array",
        }
    }

    /// Parse a surface-syntax spelling.
    pub fn from_symbol(s: &str) -> Option<Self> {
        Some(match s {
            "==" | "=" => CompareOp::Eq,
            "!=" => CompareOp::Neq,
            ">" => CompareOp::Gt,
            "<" => CompareOp::Lt,
            ">=" => CompareOp::Geq,
            "<=" => CompareOp::Leq,
            "contains" => CompareOp::Contains,
            "substr" => CompareOp::Substr,
            "starts_with" => CompareOp::StartsWith,
            "ends_with" => CompareOp::EndsWith,
            "in_array" => CompareOp::InArray,
            _ => return None,
        })
    }

    /// The negation of this operator, when one exists as a single operator.
    pub fn negate(self) -> Option<Self> {
        Some(match self {
            CompareOp::Eq => CompareOp::Neq,
            CompareOp::Neq => CompareOp::Eq,
            CompareOp::Gt => CompareOp::Leq,
            CompareOp::Lt => CompareOp::Geq,
            CompareOp::Geq => CompareOp::Lt,
            CompareOp::Leq => CompareOp::Gt,
            _ => return None,
        })
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A boolean predicate over the output parameters of a query (Fig. 5).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Logical negation.
    Not(Box<Predicate>),
    /// Conjunction of sub-predicates.
    And(Vec<Predicate>),
    /// Disjunction of sub-predicates.
    Or(Vec<Predicate>),
    /// An atomic comparison `param op value`.
    Atom {
        /// The output parameter being tested.
        param: String,
        /// The comparison operator.
        op: CompareOp,
        /// The right-hand-side value.
        value: Value,
    },
    /// A predicated query function (`f(...) { p }`): the predicate holds if
    /// some result of the external query satisfies the inner predicate.
    External {
        /// The external query invocation.
        invocation: Invocation,
        /// The predicate over the external query's results.
        predicate: Box<Predicate>,
    },
}

impl Predicate {
    /// Convenience constructor for an atomic comparison.
    pub fn atom(param: impl Into<String>, op: CompareOp, value: Value) -> Self {
        Predicate::Atom {
            param: param.into(),
            op,
            value,
        }
    }

    /// Conjunction of two predicates, flattening nested conjunctions.
    pub fn and(self, other: Predicate) -> Predicate {
        let mut operands = Vec::new();
        for p in [self, other] {
            match p {
                Predicate::And(mut inner) => operands.append(&mut inner),
                other => operands.push(other),
            }
        }
        Predicate::And(operands)
    }

    /// Whether the predicate is the trivial `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Predicate::True)
    }

    /// Collect the output-parameter names mentioned by this predicate.
    pub fn mentioned_params(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_params(&mut out);
        out
    }

    fn collect_params<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Not(inner) => inner.collect_params(out),
            Predicate::And(items) | Predicate::Or(items) => {
                for item in items {
                    item.collect_params(out);
                }
            }
            Predicate::Atom { param, .. } => out.push(param),
            Predicate::External { predicate, .. } => predicate.collect_params(out),
        }
    }

    /// Count the atomic comparisons in the predicate.
    pub fn atom_count(&self) -> usize {
        match self {
            Predicate::True | Predicate::False => 0,
            Predicate::Not(inner) => inner.atom_count(),
            Predicate::And(items) | Predicate::Or(items) => {
                items.iter().map(|p| p.atom_count()).sum()
            }
            Predicate::Atom { .. } => 1,
            Predicate::External { predicate, .. } => 1 + predicate.atom_count(),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Not(inner) => write!(f, "!({inner})"),
            Predicate::And(items) => {
                let rendered: Vec<String> = items.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", rendered.join(" && "))
            }
            Predicate::Or(items) => {
                let rendered: Vec<String> = items.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", rendered.join(" || "))
            }
            Predicate::Atom { param, op, value } => write!(f, "{param} {op} {value}"),
            Predicate::External {
                invocation,
                predicate,
            } => write!(f, "{invocation} {{ {predicate} }}"),
        }
    }
}

/// Aggregation operators of the TT+A extension (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum AggregationOp {
    Max,
    Min,
    Sum,
    Avg,
    Count,
}

impl AggregationOp {
    /// The surface-syntax keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            AggregationOp::Max => "max",
            AggregationOp::Min => "min",
            AggregationOp::Sum => "sum",
            AggregationOp::Avg => "avg",
            AggregationOp::Count => "count",
        }
    }

    /// Parse the surface-syntax keyword.
    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "max" => AggregationOp::Max,
            "min" => AggregationOp::Min,
            "sum" => AggregationOp::Sum,
            "avg" => AggregationOp::Avg,
            "count" => AggregationOp::Count,
            _ => return None,
        })
    }
}

impl fmt::Display for AggregationOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A parameter-passing clause in a join: `on (input = output)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinParam {
    /// The input parameter of the right-hand query.
    pub input: String,
    /// The output parameter of the left-hand query.
    pub output: String,
}

impl fmt::Display for JoinParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.input, self.output)
    }
}

/// A query expression (Fig. 5, plus TT+A aggregation).
///
/// Subqueries are [`Arc`]-shared: wrapping an existing query in a filter,
/// join, or aggregation does not clone it.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Query {
    /// A direct function invocation.
    Invocation(Invocation),
    /// A filtered query.
    Filter {
        /// The filtered query.
        query: Arc<Query>,
        /// The boolean predicate over output parameters.
        predicate: Predicate,
    },
    /// A join of two queries, with optional parameter passing.
    Join {
        /// The left-hand query.
        lhs: Arc<Query>,
        /// The right-hand query.
        rhs: Arc<Query>,
        /// Parameter passing `on (input = output)` clauses.
        on: Vec<JoinParam>,
    },
    /// A TT+A aggregation over a query.
    Aggregation {
        /// The aggregation operator.
        op: AggregationOp,
        /// The aggregated output parameter; `None` for `count`.
        field: Option<String>,
        /// The aggregated query.
        query: Arc<Query>,
    },
}

impl Query {
    /// Wrap the query in a filter, merging with an existing filter node.
    pub fn filtered(self, predicate: Predicate) -> Query {
        match self {
            Query::Filter {
                query,
                predicate: existing,
            } => Query::Filter {
                query,
                predicate: existing.and(predicate),
            },
            other => Query::Filter {
                query: Arc::new(other),
                predicate,
            },
        }
    }

    /// Wrap a shared query in a filter without cloning its subtree: the
    /// result either shares `base` directly or, when `base` is already a
    /// filter, shares the filtered subquery and merges the predicates.
    pub fn shared_filtered(base: &Arc<Query>, predicate: Predicate) -> Query {
        match &**base {
            Query::Filter {
                query,
                predicate: existing,
            } => Query::Filter {
                query: Arc::clone(query),
                predicate: existing.clone().and(predicate),
            },
            _ => Query::Filter {
                query: Arc::clone(base),
                predicate,
            },
        }
    }

    /// All invocations in the query, left to right.
    pub fn invocations(&self) -> Vec<&Invocation> {
        let mut out = Vec::new();
        self.collect_invocations(&mut out);
        out
    }

    fn collect_invocations<'a>(&'a self, out: &mut Vec<&'a Invocation>) {
        match self {
            Query::Invocation(inv) => out.push(inv),
            Query::Filter { query, .. } => query.collect_invocations(out),
            Query::Join { lhs, rhs, .. } => {
                lhs.collect_invocations(out);
                rhs.collect_invocations(out);
            }
            Query::Aggregation { query, .. } => query.collect_invocations(out),
        }
    }

    /// Mutable access to all invocations in the query.
    pub fn invocations_mut(&mut self) -> Vec<&mut Invocation> {
        let mut out = Vec::new();
        self.collect_invocations_mut(&mut out);
        out
    }

    fn collect_invocations_mut<'a>(&'a mut self, out: &mut Vec<&'a mut Invocation>) {
        match self {
            Query::Invocation(inv) => out.push(inv),
            Query::Filter { query, .. } => Arc::make_mut(query).collect_invocations_mut(out),
            Query::Join { lhs, rhs, .. } => {
                Arc::make_mut(lhs).collect_invocations_mut(out);
                Arc::make_mut(rhs).collect_invocations_mut(out);
            }
            Query::Aggregation { query, .. } => Arc::make_mut(query).collect_invocations_mut(out),
        }
    }

    /// All filter predicates in the query.
    pub fn predicates(&self) -> Vec<&Predicate> {
        let mut out = Vec::new();
        self.collect_predicates(&mut out);
        out
    }

    fn collect_predicates<'a>(&'a self, out: &mut Vec<&'a Predicate>) {
        match self {
            Query::Invocation(_) => {}
            Query::Filter { query, predicate } => {
                query.collect_predicates(out);
                out.push(predicate);
            }
            Query::Join { lhs, rhs, .. } => {
                lhs.collect_predicates(out);
                rhs.collect_predicates(out);
            }
            Query::Aggregation { query, .. } => query.collect_predicates(out),
        }
    }

    /// Whether the query contains a filter anywhere.
    pub fn has_filter(&self) -> bool {
        !self.predicates().is_empty()
    }

    /// Whether the query contains a join anywhere.
    pub fn has_join(&self) -> bool {
        match self {
            Query::Invocation(_) => false,
            Query::Filter { query, .. } | Query::Aggregation { query, .. } => query.has_join(),
            Query::Join { .. } => true,
        }
    }

    /// Whether the query contains an aggregation anywhere.
    pub fn has_aggregation(&self) -> bool {
        match self {
            Query::Invocation(_) => false,
            Query::Filter { query, .. } => query.has_aggregation(),
            Query::Join { lhs, rhs, .. } => lhs.has_aggregation() || rhs.has_aggregation(),
            Query::Aggregation { .. } => true,
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Invocation(inv) => write!(f, "{inv}"),
            Query::Filter { query, predicate } => write!(f, "({query}) filter {predicate}"),
            Query::Join { lhs, rhs, on } => {
                write!(f, "{lhs} join {rhs}")?;
                if !on.is_empty() {
                    let rendered: Vec<String> = on.iter().map(|p| p.to_string()).collect();
                    write!(f, " on ({})", rendered.join(", "))?;
                }
                Ok(())
            }
            Query::Aggregation { op, field, query } => match field {
                Some(field) => write!(f, "agg {op} {field} of ({query})"),
                None => write!(f, "agg {op} of ({query})"),
            },
        }
    }
}

/// A stream expression (Fig. 5).
///
/// Monitored queries and edge-filtered streams are [`Arc`]-shared, like
/// [`Query`] subtrees.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Stream {
    /// The degenerate stream `now`, which triggers the program once
    /// immediately.
    Now,
    /// A timer firing at a given time of day.
    AtTimer {
        /// The time of day the timer fires.
        time: Value,
    },
    /// A periodic timer.
    Timer {
        /// The base date from which the timer counts.
        base: Value,
        /// The firing interval (a measure of time).
        interval: Value,
    },
    /// A monitor of a query: triggers whenever the query result changes.
    Monitor {
        /// The monitored query.
        query: Arc<Query>,
        /// Optional list of output parameters to watch (`on new file_name`);
        /// empty means any change triggers.
        on: Vec<String>,
    },
    /// An edge filter: triggers when the predicate transitions from false to
    /// true on the underlying stream.
    EdgeFilter {
        /// The filtered stream.
        stream: Arc<Stream>,
        /// The edge predicate.
        predicate: Predicate,
    },
}

impl Stream {
    /// Whether this is the degenerate `now` stream.
    pub fn is_now(&self) -> bool {
        matches!(self, Stream::Now)
    }

    /// The monitored query, if any (looking through edge filters).
    pub fn monitored_query(&self) -> Option<&Query> {
        match self {
            Stream::Monitor { query, .. } => Some(query),
            Stream::EdgeFilter { stream, .. } => stream.monitored_query(),
            _ => None,
        }
    }

    /// All invocations in the stream.
    pub fn invocations(&self) -> Vec<&Invocation> {
        match self {
            Stream::Monitor { query, .. } => query.invocations(),
            Stream::EdgeFilter { stream, .. } => stream.invocations(),
            _ => Vec::new(),
        }
    }

    /// Mutable access to all invocations in the stream.
    pub fn invocations_mut(&mut self) -> Vec<&mut Invocation> {
        match self {
            Stream::Monitor { query, .. } => Arc::make_mut(query).invocations_mut(),
            Stream::EdgeFilter { stream, .. } => Arc::make_mut(stream).invocations_mut(),
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for Stream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stream::Now => write!(f, "now"),
            Stream::AtTimer { time } => write!(f, "attimer time = {time}"),
            Stream::Timer { base, interval } => {
                write!(f, "timer base = {base} interval = {interval}")
            }
            Stream::Monitor { query, on } => {
                write!(f, "monitor ({query})")?;
                if !on.is_empty() {
                    write!(f, " on new {}", on.join(", "))?;
                }
                Ok(())
            }
            Stream::EdgeFilter { stream, predicate } => {
                write!(f, "edge ({stream}) on {predicate}")
            }
        }
    }
}

/// An action expression (Fig. 5): either the builtin `notify` or an action
/// function invocation.
///
/// The invocation is [`Arc`]-shared so the same instantiated action phrase
/// can appear in many synthesized programs without cloning.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Action {
    /// Present the result to the user.
    Notify,
    /// Invoke an action function.
    Invocation(Arc<Invocation>),
}

impl Action {
    /// Whether this is the builtin `notify`.
    pub fn is_notify(&self) -> bool {
        matches!(self, Action::Notify)
    }

    /// The invocation, if this is not `notify`.
    pub fn invocation(&self) -> Option<&Invocation> {
        match self {
            Action::Notify => None,
            Action::Invocation(inv) => Some(inv),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Notify => write!(f, "notify"),
            Action::Invocation(inv) => write!(f, "{inv}"),
        }
    }
}

/// A complete ThingTalk program: `stream [=> query] => action`.
///
/// # Examples
///
/// ```
/// use thingtalk::ast::{Action, Invocation, Program, Stream};
/// use thingtalk::value::Value;
///
/// // Fig. 1: get a cat picture and post it on Facebook. Query and action
/// // subtrees are Arc-shared; `.into()` wraps the owned fragments.
/// let program = Program {
///     stream: Stream::Now,
///     query: Some(
///         thingtalk::ast::Query::Invocation(Invocation::new("com.thecatapi", "get")).into(),
///     ),
///     action: Action::Invocation(
///         Invocation::new("com.facebook", "post_picture")
///             .with_param("picture_url", Value::VarRef("picture_url".into()))
///             .with_param("caption", Value::string("funny cat"))
///             .into(),
///     ),
/// };
/// assert!(program.is_compound());
/// assert!(program.uses_param_passing());
/// ```
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Program {
    /// The stream clause.
    pub stream: Stream,
    /// The optional query clause ([`Arc`]-shared).
    pub query: Option<Arc<Query>>,
    /// The action clause.
    pub action: Action,
}

impl Program {
    /// A primitive "do" command: `now => action`.
    pub fn do_action(action: impl Into<Arc<Invocation>>) -> Self {
        Program {
            stream: Stream::Now,
            query: None,
            action: Action::Invocation(action.into()),
        }
    }

    /// A primitive "get" command: `now => query => notify`.
    pub fn get_query(query: impl Into<Arc<Query>>) -> Self {
        Program {
            stream: Stream::Now,
            query: Some(query.into()),
            action: Action::Notify,
        }
    }

    /// A "when" command: `monitor(query) => notify`.
    pub fn when_notify(query: impl Into<Arc<Query>>) -> Self {
        Program {
            stream: Stream::Monitor {
                query: query.into(),
                on: Vec::new(),
            },
            query: None,
            action: Action::Notify,
        }
    }

    /// All function invocations in the program, in clause order.
    pub fn invocations(&self) -> Vec<&Invocation> {
        let mut out = self.stream.invocations();
        if let Some(query) = &self.query {
            out.extend(query.invocations());
        }
        if let Action::Invocation(inv) = &self.action {
            out.push(inv.as_ref());
        }
        out
    }

    /// Mutable access to all invocations in the program (copy-on-write for
    /// shared subtrees).
    pub fn invocations_mut(&mut self) -> Vec<&mut Invocation> {
        let mut out = self.stream.invocations_mut();
        if let Some(query) = &mut self.query {
            out.extend(Arc::make_mut(query).invocations_mut());
        }
        if let Action::Invocation(inv) = &mut self.action {
            out.push(Arc::make_mut(inv));
        }
        out
    }

    /// The distinct functions used by the program, in clause order.
    pub fn functions(&self) -> Vec<&FunctionRef> {
        let mut seen = Vec::new();
        for inv in self.invocations() {
            if !seen.contains(&&inv.function) {
                seen.push(&inv.function);
            }
        }
        seen
    }

    /// The distinct skill (class) names used by the program.
    pub fn devices(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for inv in self.invocations() {
            if !seen.contains(&inv.function.class.as_str()) {
                seen.push(&inv.function.class);
            }
        }
        seen
    }

    /// Whether the program is a compound command (uses two or more skill
    /// functions), as opposed to a primitive command (exactly one).
    pub fn is_compound(&self) -> bool {
        self.invocations().len() >= 2
    }

    /// Whether any clause passes an output parameter into an input parameter.
    pub fn uses_param_passing(&self) -> bool {
        let passes_in_invocation = self
            .invocations()
            .iter()
            .any(|inv| inv.passed_params().next().is_some());
        let passes_in_join = self.query.as_deref().is_some_and(query_has_join_params);
        passes_in_invocation || passes_in_join
    }

    /// Whether any clause has a filter predicate.
    pub fn has_filter(&self) -> bool {
        let stream_filter = match &self.stream {
            Stream::Monitor { query, .. } => query.has_filter(),
            Stream::EdgeFilter { .. } => true,
            _ => false,
        };
        stream_filter || self.query.as_ref().is_some_and(|q| q.has_filter())
    }

    /// Whether the program uses a TT+A aggregation.
    pub fn has_aggregation(&self) -> bool {
        self.query.as_ref().is_some_and(|q| q.has_aggregation())
            || self
                .stream
                .monitored_query()
                .is_some_and(|q| q.has_aggregation())
    }

    /// Whether the program is event driven (stream is not `now`).
    pub fn is_event_driven(&self) -> bool {
        !self.stream.is_now()
    }

    /// All constant values appearing as input parameters or filter operands,
    /// together with the parameter name they are bound to. Used by parameter
    /// replacement (§3.3).
    pub fn constants(&self) -> Vec<(String, Value)> {
        let mut out = Vec::new();
        for inv in self.invocations() {
            for p in &inv.in_params {
                if p.value.is_constant() {
                    out.push((p.name.clone(), p.value.clone()));
                }
            }
        }
        let mut predicates: Vec<&Predicate> = Vec::new();
        if let Some(query) = &self.query {
            predicates.extend(query.predicates());
        }
        if let Some(query) = self.stream.monitored_query() {
            predicates.extend(query.predicates());
        }
        if let Stream::EdgeFilter { predicate, .. } = &self.stream {
            predicates.push(predicate);
        }
        for predicate in predicates {
            collect_predicate_constants(predicate, &mut out);
        }
        out
    }
}

fn query_has_join_params(query: &Query) -> bool {
    match query {
        Query::Invocation(_) => false,
        Query::Filter { query, .. } | Query::Aggregation { query, .. } => {
            query_has_join_params(query)
        }
        Query::Join { lhs, rhs, on } => {
            !on.is_empty() || query_has_join_params(lhs) || query_has_join_params(rhs)
        }
    }
}

fn collect_predicate_constants(predicate: &Predicate, out: &mut Vec<(String, Value)>) {
    match predicate {
        Predicate::True | Predicate::False => {}
        Predicate::Not(inner) => collect_predicate_constants(inner, out),
        Predicate::And(items) | Predicate::Or(items) => {
            for item in items {
                collect_predicate_constants(item, out);
            }
        }
        Predicate::Atom { param, value, .. } => {
            if value.is_constant() {
                out.push((param.clone(), value.clone()));
            }
        }
        Predicate::External {
            invocation,
            predicate,
        } => {
            for p in &invocation.in_params {
                if p.value.is_constant() {
                    out.push((p.name.clone(), p.value.clone()));
                }
            }
            collect_predicate_constants(predicate, out);
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.stream)?;
        if let Some(query) = &self.query {
            write!(f, " => {query}")?;
        }
        write!(f, " => {}", self.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retweet_program() -> Program {
        // monitor (@com.twitter.timeline() filter author == "PLDI")
        //   => @com.twitter.retweet(tweet_id = tweet_id)
        Program {
            stream: Stream::Monitor {
                query: Arc::new(
                    Query::Invocation(Invocation::new("com.twitter", "timeline")).filtered(
                        Predicate::atom("author", CompareOp::Eq, Value::string("PLDI")),
                    ),
                ),
                on: Vec::new(),
            },
            query: None,
            action: Action::Invocation(Arc::new(
                Invocation::new("com.twitter", "retweet")
                    .with_param("tweet_id", Value::VarRef("tweet_id".into())),
            )),
        }
    }

    #[test]
    fn function_ref_qualified_parsing() {
        let fr = FunctionRef::parse_qualified("com.dropbox.list_folder").unwrap();
        assert_eq!(fr.class, "com.dropbox");
        assert_eq!(fr.function, "list_folder");
        assert!(FunctionRef::parse_qualified("nodots").is_none());
    }

    #[test]
    fn retweet_example_structure() {
        let program = retweet_program();
        assert!(program.is_compound());
        assert!(program.uses_param_passing());
        assert!(program.has_filter());
        assert!(program.is_event_driven());
        assert_eq!(program.devices(), vec!["com.twitter"]);
        assert_eq!(program.functions().len(), 2);
    }

    #[test]
    fn display_matches_surface_syntax() {
        let program = retweet_program();
        assert_eq!(
            program.to_string(),
            "monitor ((@com.twitter.timeline()) filter author == \"PLDI\") \
             => @com.twitter.retweet(tweet_id = tweet_id)"
        );
    }

    #[test]
    fn filtered_merges_nested_filters() {
        let q = Query::Invocation(Invocation::new("com.gmail", "inbox"))
            .filtered(Predicate::atom(
                "sender",
                CompareOp::Eq,
                Value::string("Alice"),
            ))
            .filtered(Predicate::atom(
                "is_unread",
                CompareOp::Eq,
                Value::Boolean(true),
            ));
        match &q {
            Query::Filter { predicate, .. } => {
                assert_eq!(predicate.atom_count(), 2);
                assert!(matches!(predicate, Predicate::And(items) if items.len() == 2));
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn constants_collects_filter_and_param_values() {
        let program = retweet_program();
        let constants = program.constants();
        assert_eq!(constants.len(), 1);
        assert_eq!(constants[0].0, "author");
    }

    #[test]
    fn aggregation_detection() {
        let program = Program::get_query(Query::Aggregation {
            op: AggregationOp::Sum,
            field: Some("file_size".into()),
            query: Arc::new(Query::Invocation(Invocation::new(
                "com.dropbox",
                "list_folder",
            ))),
        });
        assert!(program.has_aggregation());
        assert!(!program.is_compound());
        assert_eq!(
            program.to_string(),
            "now => agg sum file_size of (@com.dropbox.list_folder()) => notify"
        );
    }

    #[test]
    fn primitive_constructors() {
        let p = Program::do_action(Invocation::new("com.slack", "send"));
        assert!(!p.is_compound());
        assert!(!p.is_event_driven());
        let g = Program::get_query(Query::Invocation(Invocation::new("com.gmail", "inbox")));
        assert!(g.action.is_notify());
        let w = Program::when_notify(Query::Invocation(Invocation::new("com.gmail", "inbox")));
        assert!(w.is_event_driven());
    }

    #[test]
    fn compare_op_negation_and_parsing() {
        assert_eq!(CompareOp::from_symbol(">"), Some(CompareOp::Gt));
        assert_eq!(CompareOp::from_symbol("=="), Some(CompareOp::Eq));
        assert_eq!(CompareOp::Gt.negate(), Some(CompareOp::Leq));
        assert_eq!(CompareOp::Contains.negate(), None);
        assert_eq!(CompareOp::from_symbol("~"), None);
    }
}
