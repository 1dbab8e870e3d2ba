//! Static plan validation: the structure and rule passes.
//!
//! The optimizer is "ultimately responsible" for avoiding bad rule sets
//! (§3.1.2); this module provides the statically checkable half the paper
//! lists, reporting through the lint-style [`crate::diag`] engine so every
//! finding is collected (the schema/exchange/memory passes live in the
//! `tukwila-analyze` crate, which composes them with these two):
//!
//! * [`analyze_structure`]: operator and fragment ids are unique, the
//!   output fragment exists, dependencies reference existing fragments and
//!   form a DAG, fragment results are consumed, contingent fragments are
//!   reachable;
//! * [`analyze_rules`]: rule owners, subjects and action targets refer to
//!   plan elements; **conflict freedom** — no two rules with overlapping
//!   trigger patterns where one negates the other's effect (restriction (3)
//!   of §3.1.2) — plus duplicate, unreachable, shadowed and dead-timeout
//!   rule detection.
//!
//! [`validate_plan`] is the hard-failure wrapper for parsed plans: it runs
//! both passes and converts the first Error-severity finding into a
//! [`TukwilaError`]. Lowered plans go through the full analyzer instead,
//! which runs these two passes itself.

use std::collections::BTreeSet;

use tukwila_common::{Result, TukwilaError};

use crate::diag::{codes, Diagnostic, Pass, Span};
use crate::ids::OpId;
use crate::ops::OperatorSpec;
use crate::plan::QueryPlan;
use crate::rules::{Action, Condition, EventKind, Rule, SubjectRef};

/// Validate a plan for execution: run the structure and rule passes and
/// fail on the first Error-severity finding. Warnings are ignored here —
/// use [`analyze_structure`] / [`analyze_rules`] (or the full analyzer in
/// `tukwila-analyze`) to see everything.
pub fn validate_plan(plan: &QueryPlan) -> Result<()> {
    let mut diags = analyze_structure(plan);
    diags.extend(analyze_rules(plan));
    match diags
        .iter()
        .find(|d| d.severity == crate::diag::Severity::Error)
    {
        None => Ok(()),
        Some(d) => {
            let msg = format!("{}: {}", d.code, d.message);
            Err(match d.pass {
                Pass::Rules => TukwilaError::Rule(msg),
                _ => TukwilaError::Plan(msg),
            })
        }
    }
}

/// Structure pass: ids, output, dependency graph, fragment liveness.
pub fn analyze_structure(plan: &QueryPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_unique_ids(plan, &mut out);
    check_dependencies(plan, &mut out);
    check_fragment_liveness(plan, &mut out);
    out
}

/// Rule pass: ownership, subjects, conflicts, reachability.
pub fn analyze_rules(plan: &QueryPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_rule_subjects(plan, &mut out);
    out.extend(check_rule_conflicts(&plan.all_rules()));
    check_rule_hygiene(plan, &mut out);
    out
}

fn check_unique_ids(plan: &QueryPlan, out: &mut Vec<Diagnostic>) {
    let mut frag_ids = BTreeSet::new();
    let mut op_ids: BTreeSet<OpId> = BTreeSet::new();
    for f in &plan.fragments {
        if !frag_ids.insert(f.id) {
            out.push(Diagnostic::new(
                codes::DUPLICATE_FRAGMENT_ID,
                Span::Fragment(f.id),
                format!("duplicate fragment id {}", f.id),
            ));
        }
        for id in f.op_ids() {
            if !op_ids.insert(id) {
                out.push(Diagnostic::new(
                    codes::DUPLICATE_OP_ID,
                    Span::Op {
                        fragment: Some(f.id),
                        op: id,
                    },
                    format!("duplicate operator id {id} (fragment {})", f.id),
                ));
            }
        }
    }
    if plan.fragment(plan.output).is_none() {
        out.push(Diagnostic::new(
            codes::MISSING_OUTPUT,
            Span::Plan,
            format!("output fragment {} does not exist", plan.output),
        ));
    }
}

fn check_dependencies(plan: &QueryPlan, out: &mut Vec<Diagnostic>) {
    let mut self_dep = false;
    for (before, after) in &plan.dependencies {
        for id in [before, after] {
            if plan.fragment(*id).is_none() {
                out.push(Diagnostic::new(
                    codes::UNKNOWN_DEPENDENCY,
                    Span::Plan,
                    format!("dependency references unknown fragment {id}"),
                ));
            }
        }
        if before == after {
            self_dep = true;
            out.push(Diagnostic::new(
                codes::SELF_DEPENDENCY,
                Span::Fragment(*before),
                format!("fragment {before} depends on itself"),
            ));
        }
    }
    // A self-edge always makes the graph cyclic; don't double-report.
    if !self_dep && !plan.is_acyclic() {
        out.push(Diagnostic::new(
            codes::DEPENDENCY_CYCLE,
            Span::Plan,
            "fragment dependency graph has a cycle".to_string(),
        ));
    }
}

/// TA007 / TA008: fragments whose results can never be observed.
fn check_fragment_liveness(plan: &QueryPlan, out: &mut Vec<Diagnostic>) {
    // Materializations scanned anywhere in the plan.
    let mut scanned: BTreeSet<&str> = BTreeSet::new();
    for f in &plan.fragments {
        f.root.walk(&mut |n| {
            if let OperatorSpec::TableScan { table } = &n.spec {
                scanned.insert(table.as_str());
            }
        });
    }
    for f in &plan.fragments {
        // Orphan check only applies to complete plans: a partial plan's
        // fragments are consumed by the re-invoked optimizer.
        let ordered_before_something = plan.dependencies.iter().any(|(b, _)| *b == f.id);
        if plan.complete
            && f.id != plan.output
            && !scanned.contains(f.materialize_as.as_str())
            && !ordered_before_something
        {
            out.push(
                Diagnostic::new(
                    codes::ORPHAN_FRAGMENT,
                    Span::Fragment(f.id),
                    format!(
                        "fragment {} materializes `{}` but nothing scans it and \
                         nothing is ordered after it",
                        f.id, f.materialize_as
                    ),
                )
                .with_note("dead fragments waste source fetches and memory".to_string()),
            );
        }
        if !f.initially_active {
            let activated = plan.all_rules().iter().any(|r| {
                r.actions
                    .iter()
                    .any(|a| matches!(a, Action::Activate(s) if *s == SubjectRef::Fragment(f.id)))
            });
            if !activated {
                out.push(Diagnostic::new(
                    codes::ORPHAN_CONTINGENT,
                    Span::Fragment(f.id),
                    format!(
                        "contingent fragment {} is never activated by any rule",
                        f.id
                    ),
                ));
            }
        }
    }
}

fn subject_exists(plan: &QueryPlan, s: SubjectRef) -> bool {
    match s {
        SubjectRef::Fragment(id) => plan.fragment(id).is_some(),
        SubjectRef::Op(id) => plan.fragments.iter().any(|f| f.op_ids().contains(&id)),
    }
}

fn rule_span(rule: &Rule) -> Span {
    Span::Rule {
        name: rule.name.clone(),
        owner: rule.owner,
    }
}

fn check_rule_subjects(plan: &QueryPlan, out: &mut Vec<Diagnostic>) {
    for rule in plan.all_rules() {
        if !subject_exists(plan, rule.owner) {
            out.push(Diagnostic::new(
                codes::UNKNOWN_RULE_OWNER,
                rule_span(rule),
                format!("rule `{}` has unknown owner {}", rule.name, rule.owner),
            ));
        }
        if !subject_exists(plan, rule.event.subject) {
            out.push(Diagnostic::new(
                codes::UNKNOWN_RULE_SUBJECT,
                rule_span(rule),
                format!(
                    "rule `{}` listens on unknown subject {}",
                    rule.name, rule.event.subject
                ),
            ));
        }
        for a in &rule.actions {
            let target = match a {
                Action::SetOverflowMethod { op, .. } | Action::AlterMemory { op, .. } => {
                    Some(SubjectRef::Op(*op))
                }
                Action::Activate(s) | Action::Deactivate(s) => Some(*s),
                _ => None,
            };
            if let Some(t) = target {
                if !subject_exists(plan, t) {
                    out.push(Diagnostic::new(
                        codes::UNKNOWN_ACTION_TARGET,
                        rule_span(rule),
                        format!("rule `{}` action targets unknown subject {t}", rule.name),
                    ));
                }
            }
        }
    }
}

/// Restriction (3) of §3.1.2: "No two rules may ever be active such that
/// one rule negates the effect of the other and both rules can be fired
/// simultaneously." Two rules can fire simultaneously when their event
/// patterns can match the same event; the negation we check is
/// activate/deactivate of the same subject (the only directly inverse
/// action pair in the language). Unlike the pre-diagnostics version, this
/// reports **every** conflicting pair, not just the first.
pub fn check_rule_conflicts(rules: &[&Rule]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, a) in rules.iter().enumerate() {
        for b in rules.iter().skip(i + 1) {
            if !patterns_overlap(a, b) {
                continue;
            }
            for act_a in &a.actions {
                for act_b in &b.actions {
                    if let (Some((sa, on_a)), Some((sb, on_b))) =
                        (act_a.activation_target(), act_b.activation_target())
                    {
                        if sa == sb && on_a != on_b {
                            out.push(
                                Diagnostic::new(
                                    codes::CONFLICTING_RULES,
                                    rule_span(a),
                                    format!(
                                        "rules `{}` and `{}` can fire on the same event and \
                                         negate each other on {sa}",
                                        a.name, b.name
                                    ),
                                )
                                .with_note(format!(
                                    "both trigger on {:?}({})",
                                    a.event.kind, a.event.subject
                                )),
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

fn patterns_overlap(a: &Rule, b: &Rule) -> bool {
    a.event.kind == b.event.kind
        && a.event.subject == b.event.subject
        && match (a.event.value, b.event.value) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        }
}

/// TA014 / TA015 / TA016 / TA017: duplicate names, unreachable conditions,
/// shadowing duplicates, and timeout rules on subjects that never time out.
fn check_rule_hygiene(plan: &QueryPlan, out: &mut Vec<Diagnostic>) {
    let rules = plan.all_rules();
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for rule in &rules {
        if !names.insert(rule.name.as_str()) {
            out.push(Diagnostic::new(
                codes::DUPLICATE_RULE_NAME,
                rule_span(rule),
                format!("rule name `{}` is used more than once", rule.name),
            ));
        }
        if always_false(&rule.condition) {
            out.push(Diagnostic::new(
                codes::UNREACHABLE_RULE,
                rule_span(rule),
                format!("rule `{}` has a condition that is always false", rule.name),
            ));
        }
        if rule.event.kind == EventKind::Timeout && !emits_timeouts(plan, rule.event.subject) {
            out.push(
                Diagnostic::new(
                    codes::DEAD_TIMEOUT_RULE,
                    rule_span(rule),
                    format!(
                        "rule `{}` listens for timeout({}) but that subject never \
                         emits timeout events",
                        rule.name, rule.event.subject
                    ),
                )
                .with_note(
                    "timeouts come from wrapper scans with :timeout set and from \
                     collector children under a child timeout"
                        .to_string(),
                ),
            );
        }
    }
    for (i, a) in rules.iter().enumerate() {
        for b in rules.iter().skip(i + 1) {
            if a.event == b.event && a.condition == b.condition && a.actions == b.actions {
                out.push(
                    Diagnostic::new(
                        codes::SHADOWED_RULE,
                        rule_span(b),
                        format!(
                            "rule `{}` duplicates the trigger, condition and actions of \
                             rule `{}`",
                            b.name, a.name
                        ),
                    )
                    .with_note("each will fire once; the second firing is redundant".to_string()),
                );
            }
        }
    }
}

/// Whether `subject` can ever raise a Timeout event: a wrapper scan with a
/// timeout configured, or a collector child whose collector sets a child
/// timeout (the only two places the engine generates them).
fn emits_timeouts(plan: &QueryPlan, subject: SubjectRef) -> bool {
    let SubjectRef::Op(id) = subject else {
        return false;
    };
    for f in &plan.fragments {
        let mut found = false;
        f.root.walk(&mut |n| {
            match &n.spec {
                OperatorSpec::WrapperScan { timeout_ms, .. } if n.id == id => {
                    found |= timeout_ms.is_some();
                }
                OperatorSpec::Collector {
                    children,
                    child_timeout_ms,
                    ..
                } if children.iter().any(|c| c.id == id) => {
                    found |= child_timeout_ms.is_some();
                }
                _ => {}
            };
        });
        if found {
            return true;
        }
    }
    false
}

fn always_false(c: &Condition) -> bool {
    match c {
        Condition::False => true,
        Condition::And(cs) => cs.iter().any(always_false),
        Condition::Or(cs) => cs.iter().all(always_false),
        Condition::Not(inner) => always_true(inner),
        _ => false,
    }
}

fn always_true(c: &Condition) -> bool {
    match c {
        Condition::True => true,
        Condition::And(cs) => cs.iter().all(always_true),
        Condition::Or(cs) => cs.iter().any(always_true),
        Condition::Not(inner) => always_false(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::ids::FragmentId;
    use crate::ops::JoinKind;
    use crate::rules::{Condition, EventKind, EventPattern};

    fn valid_plan() -> QueryPlan {
        let mut b = PlanBuilder::new();
        let s1 = b.wrapper_scan("A");
        let s2 = b.wrapper_scan("B");
        let j = b.join(JoinKind::HybridHash, s1, s2, "k", "k");
        let f = b.fragment(j, "out");
        b.build(f)
    }

    #[test]
    fn valid_plan_passes() {
        assert!(validate_plan(&valid_plan()).is_ok());
    }

    #[test]
    fn duplicate_op_ids_rejected() {
        let mut plan = valid_plan();
        let mut f2 = plan.fragments[0].clone();
        f2.id = FragmentId(99);
        plan.fragments.push(f2); // same op ids in two fragments
        assert_eq!(validate_plan(&plan).unwrap_err().kind(), "plan");
        let diags = analyze_structure(&plan);
        // one duplicate per op in the cloned fragment, all collected
        assert_eq!(
            diags.iter().filter(|d| d.code == "TA002").count(),
            3,
            "{diags:?}"
        );
    }

    #[test]
    fn missing_output_rejected() {
        let mut plan = valid_plan();
        plan.output = FragmentId(42);
        assert!(validate_plan(&plan).is_err());
        assert!(analyze_structure(&plan).iter().any(|d| d.code == "TA003"));
    }

    #[test]
    fn self_dependency_rejected() {
        let mut plan = valid_plan();
        plan.dependencies.push((FragmentId(0), FragmentId(0)));
        assert!(validate_plan(&plan).is_err());
        let diags = analyze_structure(&plan);
        assert!(diags.iter().any(|d| d.code == "TA005"));
        // the self-edge must not also count as a generic cycle
        assert!(!diags.iter().any(|d| d.code == "TA006"), "{diags:?}");
    }

    #[test]
    fn dependency_cycle_detected() {
        let mut b = PlanBuilder::new();
        let s1 = b.wrapper_scan("A");
        let f1 = b.fragment(s1, "m1");
        let s2 = b.table_scan("m1");
        let f2 = b.fragment(s2, "result");
        b.depends(f1, f2);
        b.depends(f2, f1);
        let plan = b.build(f2);
        assert!(analyze_structure(&plan).iter().any(|d| d.code == "TA006"));
    }

    #[test]
    fn unknown_rule_owner_rejected() {
        let mut plan = valid_plan();
        plan.global_rules.push(Rule::new(
            "bad",
            SubjectRef::Op(OpId(99)),
            EventPattern::new(EventKind::Closed, SubjectRef::Fragment(FragmentId(0))),
            Condition::True,
            vec![],
        ));
        assert_eq!(validate_plan(&plan).unwrap_err().kind(), "rule");
        assert!(analyze_rules(&plan).iter().any(|d| d.code == "TA010"));
    }

    #[test]
    fn conflicting_activate_deactivate_rejected() {
        let mut plan = valid_plan();
        let target = SubjectRef::Op(OpId(0));
        let ev = EventPattern::new(EventKind::Closed, SubjectRef::Fragment(FragmentId(0)));
        plan.global_rules.push(Rule::new(
            "r1",
            SubjectRef::Fragment(FragmentId(0)),
            ev.clone(),
            Condition::True,
            vec![Action::Activate(target)],
        ));
        plan.global_rules.push(Rule::new(
            "r2",
            SubjectRef::Fragment(FragmentId(0)),
            ev,
            Condition::True,
            vec![Action::Deactivate(target)],
        ));
        let err = validate_plan(&plan).unwrap_err();
        assert_eq!(err.kind(), "rule");
        assert!(err.to_string().contains("negate"));
    }

    #[test]
    fn all_conflicting_pairs_reported() {
        // three rules on the same event, two activators and one deactivator
        // → two conflicting pairs, both reported (the old checker stopped
        // at the first).
        let mut plan = valid_plan();
        let target = SubjectRef::Op(OpId(0));
        let ev = EventPattern::new(EventKind::Closed, SubjectRef::Fragment(FragmentId(0)));
        for (name, action) in [
            ("on-1", Action::Activate(target)),
            ("on-2", Action::Activate(target)),
            ("off", Action::Deactivate(target)),
        ] {
            plan.global_rules.push(Rule::new(
                name,
                SubjectRef::Fragment(FragmentId(0)),
                ev.clone(),
                Condition::True,
                vec![action],
            ));
        }
        let conflicts = check_rule_conflicts(&plan.all_rules());
        assert_eq!(conflicts.len(), 2, "{conflicts:?}");
        assert!(conflicts.iter().all(|d| d.code == "TA013"));
    }

    #[test]
    fn distinct_threshold_values_do_not_conflict() {
        // The paper's collector example: threshold(A,10) deactivates B while
        // threshold(B,10) deactivates A — different subjects, no conflict.
        let mut plan = valid_plan();
        let op_a = SubjectRef::Op(OpId(0));
        let op_b = SubjectRef::Op(OpId(1));
        plan.global_rules.push(Rule::new(
            "win-a",
            SubjectRef::Fragment(FragmentId(0)),
            EventPattern::with_value(EventKind::Threshold, op_a, 10),
            Condition::True,
            vec![Action::Deactivate(op_b)],
        ));
        plan.global_rules.push(Rule::new(
            "win-b",
            SubjectRef::Fragment(FragmentId(0)),
            EventPattern::with_value(EventKind::Threshold, op_b, 10),
            Condition::True,
            vec![Action::Deactivate(op_a)],
        ));
        assert!(validate_plan(&plan).is_ok());
    }

    #[test]
    fn rule_hygiene_warnings() {
        let mut plan = valid_plan();
        let frag = SubjectRef::Fragment(FragmentId(0));
        let ev = EventPattern::new(EventKind::Closed, frag);
        // duplicate name + shadowed pair + unreachable condition
        plan.global_rules.push(Rule::new(
            "dup",
            frag,
            ev.clone(),
            Condition::True,
            vec![Action::Replan],
        ));
        plan.global_rules.push(Rule::new(
            "dup",
            frag,
            ev.clone(),
            Condition::True,
            vec![Action::Replan],
        ));
        plan.global_rules.push(Rule::new(
            "never",
            frag,
            ev,
            Condition::False,
            vec![Action::Reschedule],
        ));
        let diags = analyze_rules(&plan);
        assert!(diags.iter().any(|d| d.code == "TA014"), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "TA015"), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "TA016"), "{diags:?}");
        // warnings do not fail hard validation
        assert!(validate_plan(&plan).is_ok());
    }

    #[test]
    fn dead_timeout_rule_flagged_and_live_one_not() {
        let mut b = PlanBuilder::new();
        let s1 = b.wrapper_scan_opts("A", Some(100), None); // has timeout
        let s2 = b.wrapper_scan("B"); // no timeout
        let s1_id = s1.id;
        let s2_id = s2.id;
        let j = b.join(JoinKind::HybridHash, s1, s2, "k", "k");
        let f = b.fragment(j, "out");
        b.add_local_rule(f, Rule::reschedule_on_timeout(f, s1_id));
        b.add_local_rule(f, Rule::reschedule_on_timeout(f, s2_id));
        let plan = b.build(f);
        let diags = analyze_rules(&plan);
        let dead: Vec<_> = diags.iter().filter(|d| d.code == "TA017").collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert!(dead[0].message.contains(&s2_id.to_string()));
    }

    #[test]
    fn orphan_fragment_and_contingent_warned() {
        let mut b = PlanBuilder::new();
        let s1 = b.wrapper_scan("A");
        let _dead = b.fragment(s1, "never_read");
        let s2 = b.wrapper_scan("B");
        let alt = b.contingent_fragment(s2, "alt");
        let s3 = b.wrapper_scan("C");
        let out = b.fragment(s3, "result");
        let plan = b.build(out);
        let diags = analyze_structure(&plan);
        assert!(diags.iter().any(|d| d.code == "TA007"), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "TA008"), "{diags:?}");
        // contingent fragments with an activating rule are fine
        let mut plan2 = plan.clone();
        plan2.global_rules.push(Rule::new(
            "enable-alt",
            SubjectRef::Fragment(out),
            EventPattern::new(EventKind::Error, SubjectRef::Fragment(out)),
            Condition::True,
            vec![Action::Activate(SubjectRef::Fragment(alt))],
        ));
        assert!(!analyze_structure(&plan2).iter().any(|d| d.code == "TA008"));
    }
}
