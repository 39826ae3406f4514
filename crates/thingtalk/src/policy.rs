//! TACL: the ThingTalk Access Control Language (§6.2, Fig. 10).
//!
//! A policy consists of a *source predicate* — who is requesting access — and
//! a primitive ThingTalk command restricted by a filter: either a query
//! policy (`now => f filter p => notify`) or an action policy
//! (`now => f filter p`). The policy allows a requesting principal to run a
//! program if the source predicate matches the principal and the program is
//! subsumed by the policy body.

use std::fmt;

use crate::ast::{Action, CompareOp, FunctionRef, Predicate, Program, Stream};
use crate::value::Value;

/// The body of a TACL policy: a restricted query or a restricted action.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyBody {
    /// Allows reading the results of the given query function, restricted by
    /// the predicate.
    Query {
        /// The query function.
        function: FunctionRef,
        /// The filter restricting which results may be read.
        predicate: Predicate,
    },
    /// Allows invoking the given action function, restricted by the
    /// predicate over its input parameters.
    Action {
        /// The action function.
        function: FunctionRef,
        /// The filter restricting which invocations are allowed.
        predicate: Predicate,
    },
}

impl PolicyBody {
    /// The function the policy governs.
    pub fn function(&self) -> &FunctionRef {
        match self {
            PolicyBody::Query { function, .. } | PolicyBody::Action { function, .. } => function,
        }
    }

    /// The restricting predicate.
    pub fn predicate(&self) -> &Predicate {
        match self {
            PolicyBody::Query { predicate, .. } | PolicyBody::Action { predicate, .. } => predicate,
        }
    }
}

/// A TACL access-control policy.
///
/// # Examples
///
/// ```
/// use thingtalk::syntax::parse_policy;
///
/// // "my secretary is allowed to see my work emails"
/// let policy = parse_policy(
///     "source == \"secretary\" : now => @com.gmail.inbox() \
///      filter labels contains \"work\" => notify",
/// )?;
/// assert!(policy.allows_source("secretary"));
/// assert!(!policy.allows_source("stranger"));
/// # Ok::<(), thingtalk::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// The predicate over the requesting principal; atoms use the parameter
    /// name `source`.
    pub source: Predicate,
    /// The allowed command.
    pub body: PolicyBody,
}

impl Policy {
    /// A policy that allows anyone to run the given body.
    pub fn anyone(body: PolicyBody) -> Self {
        Policy {
            source: Predicate::True,
            body,
        }
    }

    /// Whether this is a query policy (as opposed to an action policy).
    pub fn is_query_policy(&self) -> bool {
        matches!(self.body, PolicyBody::Query { .. })
    }

    /// Evaluate the source predicate against a principal name.
    pub fn allows_source(&self, principal: &str) -> bool {
        eval_source(&self.source, principal)
    }

    /// Whether a primitive program is allowed by this policy for the given
    /// principal. The program must use only the policy's function, and the
    /// check is conservative: a program is allowed only if every filter of
    /// the policy body is syntactically implied by the program (the program
    /// carries the same atom, conjoined).
    pub fn allows_program(&self, principal: &str, program: &Program) -> bool {
        if !self.allows_source(principal) {
            return false;
        }
        // Only primitive commands are governed by primitive TACL policies.
        if program.is_compound() || !matches!(program.stream, Stream::Now) {
            return false;
        }
        match &self.body {
            PolicyBody::Query {
                function,
                predicate,
            } => {
                let Some(query) = &program.query else {
                    return false;
                };
                if !program.action.is_notify() {
                    return false;
                }
                let invocations = query.invocations();
                if invocations.len() != 1 || &invocations[0].function != function {
                    return false;
                }
                predicate_implied(predicate, &query.predicates())
            }
            PolicyBody::Action {
                function,
                predicate,
            } => {
                if program.query.is_some() {
                    return false;
                }
                let Action::Invocation(inv) = &program.action else {
                    return false;
                };
                if &inv.function != function {
                    return false;
                }
                // Action policies restrict input parameters: every atom of
                // the policy predicate must be satisfied by the constant
                // parameters of the invocation.
                atoms(predicate).iter().all(|(param, op, value)| {
                    inv.param(param)
                        .map(|bound| compare_values(bound, *op, value))
                        .unwrap_or(false)
                })
            }
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} : now => {}(", self.source, self.body.function())?;
        write!(f, ")")?;
        if !self.body.predicate().is_true() {
            write!(f, " filter {}", self.body.predicate())?;
        }
        if self.is_query_policy() {
            write!(f, " => notify")?;
        }
        Ok(())
    }
}

fn eval_source(predicate: &Predicate, principal: &str) -> bool {
    match predicate {
        Predicate::True => true,
        Predicate::False => false,
        Predicate::Not(inner) => !eval_source(inner, principal),
        Predicate::And(items) => items.iter().all(|p| eval_source(p, principal)),
        Predicate::Or(items) => items.iter().any(|p| eval_source(p, principal)),
        Predicate::Atom { param, op, value } => {
            if param != "source" {
                return false;
            }
            let principal_value = Value::string(principal);
            compare_values(&principal_value, *op, value)
        }
        Predicate::External { .. } => false,
    }
}

fn compare_values(lhs: &Value, op: CompareOp, rhs: &Value) -> bool {
    match op {
        CompareOp::Eq => lhs.loosely_equals(rhs),
        CompareOp::Neq => !lhs.loosely_equals(rhs),
        CompareOp::Gt => matches!(lhs.compare(rhs), Some(std::cmp::Ordering::Greater)),
        CompareOp::Lt => matches!(lhs.compare(rhs), Some(std::cmp::Ordering::Less)),
        CompareOp::Geq => matches!(
            lhs.compare(rhs),
            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
        ),
        CompareOp::Leq => matches!(
            lhs.compare(rhs),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        ),
        CompareOp::Contains | CompareOp::Substr => {
            let (Some(a), Some(b)) = (lhs.as_text(), rhs.as_text()) else {
                return false;
            };
            a.to_lowercase().contains(&b.to_lowercase())
        }
        CompareOp::StartsWith => {
            let (Some(a), Some(b)) = (lhs.as_text(), rhs.as_text()) else {
                return false;
            };
            a.to_lowercase().starts_with(&b.to_lowercase())
        }
        CompareOp::EndsWith => {
            let (Some(a), Some(b)) = (lhs.as_text(), rhs.as_text()) else {
                return false;
            };
            a.to_lowercase().ends_with(&b.to_lowercase())
        }
        CompareOp::InArray => match rhs {
            Value::Array(items) => items.iter().any(|item| lhs.loosely_equals(item)),
            _ => false,
        },
    }
}

fn atoms(predicate: &Predicate) -> Vec<(&str, CompareOp, &Value)> {
    let mut out = Vec::new();
    collect_atoms(predicate, &mut out);
    out
}

fn collect_atoms<'a>(predicate: &'a Predicate, out: &mut Vec<(&'a str, CompareOp, &'a Value)>) {
    match predicate {
        Predicate::Atom { param, op, value } => out.push((param, *op, value)),
        Predicate::And(items) => {
            for item in items {
                collect_atoms(item, out);
            }
        }
        _ => {}
    }
}

/// Whether every atom of `policy_predicate` also appears among the program's
/// filter predicates (conservative syntactic implication).
fn predicate_implied(policy_predicate: &Predicate, program_predicates: &[&Predicate]) -> bool {
    if policy_predicate.is_true() {
        return true;
    }
    let required = atoms(policy_predicate);
    let mut available = Vec::new();
    for p in program_predicates {
        collect_atoms(p, &mut available);
    }
    required.iter().all(|(param, op, value)| {
        available
            .iter()
            .any(|(p2, op2, v2)| p2 == param && op2 == op && v2.loosely_equals(value))
    })
}

/// Check a program against a set of policies: the program is allowed if any
/// policy allows it.
pub fn check_program(policies: &[Policy], principal: &str, program: &Program) -> bool {
    policies
        .iter()
        .any(|policy| policy.allows_program(principal, program))
}

/// Convenience constructor for the query policy over a single function, used
/// by the TACL template library.
pub fn query_policy(source: Predicate, function: FunctionRef, predicate: Predicate) -> Policy {
    Policy {
        source,
        body: PolicyBody::Query {
            function,
            predicate,
        },
    }
}

/// Convenience constructor for the action policy over a single function.
pub fn action_policy(source: Predicate, function: FunctionRef, predicate: Predicate) -> Policy {
    Policy {
        source,
        body: PolicyBody::Action {
            function,
            predicate,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Invocation;
    use crate::syntax::{parse_policy, parse_program};

    #[test]
    fn source_predicate_evaluation() {
        let policy = parse_policy(
            "source == \"secretary\" || source == \"assistant\" : now => @com.gmail.inbox() => notify",
        )
        .unwrap();
        assert!(policy.allows_source("secretary"));
        assert!(policy.allows_source("assistant"));
        assert!(!policy.allows_source("boss"));
    }

    #[test]
    fn query_policy_requires_matching_filter() {
        let policy = parse_policy(
            "source == \"secretary\" : now => @com.gmail.inbox() filter labels contains \"work\" => notify",
        )
        .unwrap();
        let allowed =
            parse_program("now => @com.gmail.inbox() filter labels contains \"work\" => notify")
                .unwrap();
        let denied = parse_program("now => @com.gmail.inbox() => notify").unwrap();
        assert!(policy.allows_program("secretary", &allowed));
        assert!(!policy.allows_program("secretary", &denied));
        assert!(!policy.allows_program("stranger", &allowed));
    }

    #[test]
    fn action_policy_checks_parameter_values() {
        let policy = parse_policy(
            "true : now => @org.thingpedia.builtin.thermostat.set_target_temperature(value = 25C)",
        )
        .unwrap();
        let allowed = Program::do_action(
            Invocation::new(
                "org.thingpedia.builtin.thermostat",
                "set_target_temperature",
            )
            .with_param("value", Value::Measure(25.0, crate::units::Unit::Celsius)),
        );
        let denied = Program::do_action(
            Invocation::new(
                "org.thingpedia.builtin.thermostat",
                "set_target_temperature",
            )
            .with_param("value", Value::Measure(35.0, crate::units::Unit::Celsius)),
        );
        assert!(policy.allows_program("anyone", &allowed));
        assert!(!policy.allows_program("anyone", &denied));
    }

    #[test]
    fn compound_programs_are_not_covered_by_primitive_policies() {
        let policy = parse_policy("true : now => @com.gmail.inbox() => notify").unwrap();
        let compound =
            parse_program("now => @com.gmail.inbox() => @com.slack.send(message = $event)")
                .unwrap();
        assert!(!policy.allows_program("anyone", &compound));
    }

    #[test]
    fn check_program_any_policy_suffices() {
        let policies = vec![
            parse_policy("source == \"alice\" : now => @com.gmail.inbox() => notify").unwrap(),
            parse_policy("source == \"bob\" : now => @com.twitter.timeline() => notify").unwrap(),
        ];
        let program = parse_program("now => @com.twitter.timeline() => notify").unwrap();
        assert!(check_program(&policies, "bob", &program));
        assert!(!check_program(&policies, "alice", &program));
    }
}
