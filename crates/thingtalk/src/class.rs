//! The skill-library class grammar (Fig. 3 of the paper).
//!
//! A class represents a skill (an IoT device or web service) and declares
//! *query* functions — which retrieve data, have no side effects, and may be
//! `monitorable` and/or `list` — and *action* functions — which have side
//! effects and no output parameters. Data flows in and out of functions
//! through named, typed parameters declared `in req`, `in opt`, or `out`.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{Error, Result};
use crate::types::Type;

/// The direction and requiredness of a function parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamDirection {
    /// A required input parameter (`in req`).
    InReq,
    /// An optional input parameter (`in opt`).
    InOpt,
    /// An output parameter (`out`); only query functions have these.
    Out,
}

impl ParamDirection {
    /// Whether this is an input (required or optional) parameter.
    pub fn is_input(self) -> bool {
        matches!(self, ParamDirection::InReq | ParamDirection::InOpt)
    }

    /// Whether this is an output parameter.
    pub fn is_output(self) -> bool {
        matches!(self, ParamDirection::Out)
    }

    /// The surface-syntax keywords for this direction.
    pub fn keywords(self) -> &'static str {
        match self {
            ParamDirection::InReq => "in req",
            ParamDirection::InOpt => "in opt",
            ParamDirection::Out => "out",
        }
    }
}

/// A parameter declaration in a function signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    /// The parameter name. The paper encourages consistent naming across
    /// functions so the semantic parser can unify parameters by name.
    pub name: String,
    /// The parameter type.
    pub ty: Type,
    /// Direction and requiredness.
    pub direction: ParamDirection,
    /// A natural-language phrase for this parameter ("modified time",
    /// "file size"), used by the describer and the template engine.
    pub canonical: String,
}

impl ParamDef {
    /// Create a new parameter definition; the canonical phrase defaults to
    /// the name with underscores replaced by spaces.
    pub fn new(name: impl Into<String>, ty: Type, direction: ParamDirection) -> Self {
        let name = name.into();
        let canonical = name.replace('_', " ");
        ParamDef {
            name,
            ty,
            direction,
            canonical,
        }
    }

    /// Override the canonical phrase.
    pub fn with_canonical(mut self, canonical: impl Into<String>) -> Self {
        self.canonical = canonical.into();
        self
    }
}

impl fmt::Display for ParamDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} : {}",
            self.direction.keywords(),
            self.name,
            self.ty
        )
    }
}

/// Whether a function is a query or an action, along with query flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// A query function: retrieves data, no side effects.
    Query {
        /// Whether the result can be monitored for changes (`monitorable`).
        monitorable: bool,
        /// Whether the function returns a list of results (`list`).
        list: bool,
    },
    /// An action function: side effects, no output parameters.
    Action,
}

impl FunctionKind {
    /// A monitorable, list-returning query.
    pub const MONITORABLE_LIST_QUERY: FunctionKind = FunctionKind::Query {
        monitorable: true,
        list: true,
    };

    /// A monitorable single-result query.
    pub const MONITORABLE_QUERY: FunctionKind = FunctionKind::Query {
        monitorable: true,
        list: false,
    };

    /// A non-monitorable list query.
    pub const LIST_QUERY: FunctionKind = FunctionKind::Query {
        monitorable: false,
        list: true,
    };

    /// A non-monitorable single-result query (e.g. a random cat picture).
    pub const QUERY: FunctionKind = FunctionKind::Query {
        monitorable: false,
        list: false,
    };

    /// Whether this is a query.
    pub fn is_query(self) -> bool {
        matches!(self, FunctionKind::Query { .. })
    }

    /// Whether this is an action.
    pub fn is_action(self) -> bool {
        matches!(self, FunctionKind::Action)
    }

    /// Whether this function can be monitored as a stream.
    pub fn is_monitorable(self) -> bool {
        matches!(
            self,
            FunctionKind::Query {
                monitorable: true,
                ..
            }
        )
    }

    /// Whether this function returns a list of results.
    pub fn is_list(self) -> bool {
        matches!(self, FunctionKind::Query { list: true, .. })
    }
}

/// A function (query or action) declaration inside a class.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// The function name, unique within the class.
    pub name: String,
    /// Query or action, with monitorable/list flags.
    pub kind: FunctionKind,
    /// The declared parameters, in declaration order.
    pub params: Vec<ParamDef>,
    /// The canonical natural-language phrase for the function ("my dropbox
    /// files", "post on facebook"). Primitive templates extend this.
    pub canonical: String,
    /// A one-line description shown on the cheatsheet.
    pub description: String,
    /// Coarse confusion/understandability rating used when pairing functions
    /// for paraphrasing (§3.2): `true` if crowdworkers find the function easy
    /// to understand.
    pub easy_to_understand: bool,
}

impl FunctionDef {
    /// Create a new function definition with default metadata derived from
    /// the name.
    pub fn new(name: impl Into<String>, kind: FunctionKind, params: Vec<ParamDef>) -> Self {
        let name = name.into();
        let canonical = name.replace('_', " ");
        FunctionDef {
            description: canonical.clone(),
            canonical,
            name,
            kind,
            params,
            easy_to_understand: true,
        }
    }

    /// Override the canonical phrase.
    pub fn with_canonical(mut self, canonical: impl Into<String>) -> Self {
        self.canonical = canonical.into();
        self
    }

    /// Override the description.
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Mark the function as hard to understand for crowdworkers.
    pub fn hard_to_understand(mut self) -> Self {
        self.easy_to_understand = false;
        self
    }

    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&ParamDef> {
        self.params.iter().find(|p| p.name == name)
    }

    /// The input parameters (required and optional).
    pub fn input_params(&self) -> impl Iterator<Item = &ParamDef> {
        self.params.iter().filter(|p| p.direction.is_input())
    }

    /// The required input parameters.
    pub fn required_params(&self) -> impl Iterator<Item = &ParamDef> {
        self.params
            .iter()
            .filter(|p| p.direction == ParamDirection::InReq)
    }

    /// The output parameters.
    pub fn output_params(&self) -> impl Iterator<Item = &ParamDef> {
        self.params.iter().filter(|p| p.direction.is_output())
    }
}

impl fmt::Display for FunctionDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FunctionKind::Query { monitorable, list } => {
                if monitorable {
                    write!(f, "monitorable ")?;
                }
                if list {
                    write!(f, "list ")?;
                }
                write!(f, "query ")?;
            }
            FunctionKind::Action => write!(f, "action ")?,
        }
        let params: Vec<String> = self.params.iter().map(|p| p.to_string()).collect();
        write!(f, "{}({});", self.name, params.join(", "))
    }
}

/// A class in the skill library: a named collection of queries and actions
/// (Fig. 4 shows the Dropbox class).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// The fully-qualified class name, e.g. `com.dropbox`.
    pub name: String,
    /// Classes this class extends.
    pub extends: Vec<String>,
    /// Declared queries and actions, indexed by function name.
    pub functions: BTreeMap<String, FunctionDef>,
    /// A human-readable name for the skill ("Dropbox").
    pub display_name: String,
    /// The domain of the skill ("cloud storage", "social network", …), used
    /// when sampling cheatsheet subsets.
    pub domain: String,
}

impl ClassDef {
    /// Create a new empty class.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let display_name = name.rsplit('.').next().unwrap_or(&name).to_owned();
        ClassDef {
            name,
            extends: Vec::new(),
            functions: BTreeMap::new(),
            display_name,
            domain: String::new(),
        }
    }

    /// Set the human-readable display name.
    pub fn with_display_name(mut self, display_name: impl Into<String>) -> Self {
        self.display_name = display_name.into();
        self
    }

    /// Set the domain of the skill.
    pub fn with_domain(mut self, domain: impl Into<String>) -> Self {
        self.domain = domain.into();
        self
    }

    /// Add a function to the class (builder style).
    pub fn with_function(mut self, function: FunctionDef) -> Self {
        self.functions.insert(function.name.clone(), function);
        self
    }

    /// Add a function to the class.
    pub fn add_function(&mut self, function: FunctionDef) {
        self.functions.insert(function.name.clone(), function);
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Result<&FunctionDef> {
        self.functions
            .get(name)
            .ok_or_else(|| Error::UnknownFunction {
                class: self.name.clone(),
                function: name.to_owned(),
            })
    }

    /// Iterate over the query functions.
    pub fn queries(&self) -> impl Iterator<Item = &FunctionDef> {
        self.functions.values().filter(|f| f.kind.is_query())
    }

    /// Iterate over the action functions.
    pub fn actions(&self) -> impl Iterator<Item = &FunctionDef> {
        self.functions.values().filter(|f| f.kind.is_action())
    }
}

impl fmt::Display for ClassDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class @{}", self.name)?;
        for parent in &self.extends {
            write!(f, " extends @{parent}")?;
        }
        writeln!(f, " {{")?;
        for function in self.functions.values() {
            writeln!(f, "  {function}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::BaseUnit;

    fn dropbox_like() -> ClassDef {
        ClassDef::new("com.dropbox")
            .with_display_name("Dropbox")
            .with_domain("cloud storage")
            .with_function(FunctionDef::new(
                "get_space_usage",
                FunctionKind::MONITORABLE_QUERY,
                vec![
                    ParamDef::new(
                        "used_space",
                        Type::Measure(BaseUnit::Byte),
                        ParamDirection::Out,
                    ),
                    ParamDef::new(
                        "total_space",
                        Type::Measure(BaseUnit::Byte),
                        ParamDirection::Out,
                    ),
                ],
            ))
            .with_function(FunctionDef::new(
                "list_folder",
                FunctionKind::MONITORABLE_LIST_QUERY,
                vec![
                    ParamDef::new("folder_name", Type::PathName, ParamDirection::InReq),
                    ParamDef::new(
                        "order_by",
                        Type::Enum(vec![
                            "modified_time_decreasing".into(),
                            "modified_time_increasing".into(),
                        ]),
                        ParamDirection::InOpt,
                    ),
                    ParamDef::new("file_name", Type::PathName, ParamDirection::Out),
                    ParamDef::new("is_folder", Type::Boolean, ParamDirection::Out),
                    ParamDef::new("modified_time", Type::Date, ParamDirection::Out),
                    ParamDef::new(
                        "file_size",
                        Type::Measure(BaseUnit::Byte),
                        ParamDirection::Out,
                    ),
                ],
            ))
            .with_function(FunctionDef::new(
                "move",
                FunctionKind::Action,
                vec![
                    ParamDef::new("old_name", Type::PathName, ParamDirection::InReq),
                    ParamDef::new("new_name", Type::PathName, ParamDirection::InReq),
                ],
            ))
    }

    #[test]
    fn class_lookup_and_iteration() {
        let class = dropbox_like();
        assert!(class.function("list_folder").is_ok());
        assert!(class.function("does_not_exist").is_err());
        assert_eq!(class.queries().count(), 2);
        assert_eq!(class.actions().count(), 1);
    }

    #[test]
    fn function_parameter_queries() {
        let class = dropbox_like();
        let list_folder = class.function("list_folder").unwrap();
        assert_eq!(list_folder.required_params().count(), 1);
        assert_eq!(list_folder.input_params().count(), 2);
        assert_eq!(list_folder.output_params().count(), 4);
        assert!(list_folder.kind.is_monitorable());
        assert!(list_folder.kind.is_list());
        let mv = class.function("move").unwrap();
        assert!(mv.kind.is_action());
        assert!(!mv.kind.is_monitorable());
    }

    #[test]
    fn display_matches_fig3_grammar() {
        let class = dropbox_like();
        let text = class.to_string();
        assert!(text.starts_with("class @com.dropbox {"));
        assert!(text.contains("monitorable list query list_folder(in req folder_name : PathName"));
        assert!(
            text.contains("action move(in req old_name : PathName, in req new_name : PathName);")
        );
    }

    #[test]
    fn default_canonical_replaces_underscores() {
        let f = FunctionDef::new("get_front_page", FunctionKind::LIST_QUERY, vec![]);
        assert_eq!(f.canonical, "get front page");
        let p = ParamDef::new("modified_time", Type::Date, ParamDirection::Out);
        assert_eq!(p.canonical, "modified time");
    }
}
