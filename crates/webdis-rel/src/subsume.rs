//! Canonical node-query decomposition and cached-binding replay — the
//! relational substrate of the cross-query answer cache.
//!
//! The paper's log table rewrites a node-query `A*m·B` to serve the
//! sub-queries it subsumes *within* one query (Section 3.1.1). The
//! inter-query cache generalizes that: two node-queries over the same
//! node agree on their answers whenever their conjunct *sets* agree,
//! regardless of variable names or of how the conjuncts were spread
//! across `such that` and `where` clauses — and a query whose conjunct
//! set is a *superset* of a cached one can be answered by filtering the
//! cached bindings through the leftover conjuncts (the residual), the
//! same residual-filter machinery the predicate pre-compiler already
//! uses per level.
//!
//! [`canonicalize`] produces the comparison form: variables renamed
//! positionally (`v0`, `v1`, …), every `such that` / `where` condition
//! flattened into top-level conjuncts, each rendered to a canonical
//! string. [`replay_bindings`] re-binds captured tuple indices against a
//! node database and applies residual conjuncts plus the new query's
//! projection.
//!
//! Replay preserves row *order*: both queries enumerate the same
//! relations level-by-level in ascending tuple order (posting-list
//! intersections preserve it — see [`crate::planner`]), conjuncts only
//! filter, and filtering a superset keeps the survivors' relative
//! order. Subsumption serving is restricted to queries whose conjuncts
//! cannot raise [`EvalError`] ([`CanonicalQuery::total_on_err`]): an
//! ordered comparison may error on a binding the cached conjuncts had
//! already filtered out, so only error-free predicate languages make
//! "cached ≡ uncached" exact. Exact-key hits carry no such restriction
//! — a deterministic evaluator returns the same rows for the same
//! query.

use std::collections::BTreeSet;

use crate::expr::{CmpOp, EvalError, Expr};
use crate::query::{Env, NodeQuery, RelKind, ResultRow};
use crate::relation::NodeDb;

/// One conjunct of a node-query, in both its canonical (positionally
/// renamed, rendered) form and its original executable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conjunct {
    /// The canonical rendering used for fingerprints and subset tests.
    pub canonical: String,
    /// The original expression, still naming the query's own variables —
    /// executable against an [`Env`] built from the query's declarations.
    pub expr: Expr,
}

/// A node-query reduced to its comparison form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalQuery {
    /// The declared relation kinds, in declaration order. Two queries
    /// with different kind vectors never subsume one another.
    pub kinds: Vec<RelKind>,
    /// Every `such that` / `where` condition, flattened to top-level
    /// conjuncts. Order follows declaration order then the `where`
    /// clause; duplicates are kept (subset tests use
    /// [`conjunct_set`](CanonicalQuery::conjunct_set)).
    pub conjuncts: Vec<Conjunct>,
    /// The positionally-renamed select list (`"v0.url,v1.href"`).
    pub select: String,
    /// True when no conjunct can raise an [`EvalError`] on any binding
    /// (no ordered comparisons — `Eq`/`Ne`/`contains` are total). Only
    /// such queries may be served through subsumption.
    pub total_on_err: bool,
}

impl CanonicalQuery {
    /// The canonical conjunct strings as a set, for subset tests.
    pub fn conjunct_set(&self) -> BTreeSet<&str> {
        self.conjuncts
            .iter()
            .map(|c| c.canonical.as_str())
            .collect()
    }

    /// The kind vector as a stable string key (`"document,anchor"`).
    pub fn kinds_key(&self) -> String {
        let mut out = String::new();
        for (i, k) in self.kinds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k.keyword());
        }
        out
    }

    /// The full fingerprint of the query shape: kinds, sorted conjunct
    /// set, and projection. Two queries with equal fingerprints return
    /// identical rows (values *and* order) against the same database.
    pub fn fingerprint(&self) -> String {
        let mut out = self.kinds_key();
        out.push('|');
        for c in self.conjunct_set() {
            out.push_str(c);
            out.push('&');
        }
        out.push('|');
        out.push_str(&self.select);
        out
    }
}

/// Reduces a node-query to its canonical comparison form.
pub fn canonicalize(q: &NodeQuery) -> CanonicalQuery {
    let mut conjuncts = Vec::new();
    let mut push_all = |cond: &Expr| {
        let mut flat = Vec::new();
        split_conjuncts(cond, &mut flat);
        for expr in flat {
            conjuncts.push(Conjunct {
                canonical: rename_vars(&expr, q).to_string(),
                expr,
            });
        }
    };
    for decl in &q.vars {
        if let Some(cond) = &decl.cond {
            push_all(cond);
        }
    }
    if let Some(w) = &q.where_cond {
        push_all(w);
    }
    let select = {
        let mut out = String::new();
        for (i, (var, attr)) in q.select.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&positional(q, var));
            out.push('.');
            out.push_str(attr);
        }
        out
    };
    let total_on_err = conjuncts.iter().all(|c| ordered_cmp_free(&c.expr));
    CanonicalQuery {
        kinds: q.vars.iter().map(|d| d.kind).collect(),
        conjuncts,
        select,
        total_on_err,
    }
}

/// Splits an expression into its top-level conjuncts (flattens `And`).
pub fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// The positional name of a variable (`v0` for the first declaration).
/// Unknown variables keep their name — validation rejects them later.
fn positional(q: &NodeQuery, var: &str) -> String {
    match q.vars.iter().position(|d| d.name == var) {
        Some(i) => format!("v{i}"),
        None => var.to_string(),
    }
}

/// Rewrites every variable reference to its positional name.
fn rename_vars(e: &Expr, q: &NodeQuery) -> Expr {
    match e {
        Expr::Attr { var, attr } => Expr::Attr {
            var: positional(q, var),
            attr: attr.clone(),
        },
        Expr::StrLit(_) | Expr::IntLit(_) => e.clone(),
        Expr::Contains(a, b) => {
            Expr::Contains(Box::new(rename_vars(a, q)), Box::new(rename_vars(b, q)))
        }
        Expr::Cmp(op, a, b) => Expr::Cmp(
            *op,
            Box::new(rename_vars(a, q)),
            Box::new(rename_vars(b, q)),
        ),
        Expr::And(a, b) => Expr::And(Box::new(rename_vars(a, q)), Box::new(rename_vars(b, q))),
        Expr::Or(a, b) => Expr::Or(Box::new(rename_vars(a, q)), Box::new(rename_vars(b, q))),
        Expr::Not(a) => Expr::Not(Box::new(rename_vars(a, q))),
    }
}

/// True when the expression cannot raise an [`EvalError`] on any fully
/// bound environment: ordered comparisons error on non-numeric operands
/// (PR 7 made that explicit), everything else is total.
fn ordered_cmp_free(e: &Expr) -> bool {
    match e {
        Expr::Attr { .. } | Expr::StrLit(_) | Expr::IntLit(_) => true,
        Expr::Cmp(op, a, b) => {
            !matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
                && ordered_cmp_free(a)
                && ordered_cmp_free(b)
        }
        Expr::Contains(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            ordered_cmp_free(a) && ordered_cmp_free(b)
        }
        Expr::Not(a) => ordered_cmp_free(a),
    }
}

/// Re-binds captured tuple indices against `db`, applies the residual
/// conjuncts, and projects the *new* query's select list.
///
/// `bindings[i][level]` is the tuple index bound to declaration `level`
/// for the cached query's `i`-th result row; the caller guarantees the
/// cached query's kind vector equals `q`'s, so level-for-level the
/// indices address the same relations. Out-of-range indices (a database
/// that changed shape under the cache's feet) are an error — callers
/// treat any error as a cache miss and fall back to full evaluation.
pub fn replay_bindings(
    db: &NodeDb,
    q: &NodeQuery,
    bindings: &[Vec<u32>],
    residual: &[&Expr],
) -> Result<Vec<ResultRow>, EvalError> {
    q.validate()?;
    let mut env = Env::new(db, &q.vars);
    let mut rows = Vec::new();
    'next: for binding in bindings {
        if binding.len() != q.vars.len() {
            return Err(EvalError::new("cached binding arity mismatch"));
        }
        for (level, &tuple) in binding.iter().enumerate() {
            if (tuple as usize) >= env.db.relation(q.vars[level].kind).len() {
                return Err(EvalError::new("cached binding index out of range"));
            }
            env.bound[level] = Some(tuple as usize);
        }
        for cond in residual {
            if !cond.eval_bool(&env)? {
                continue 'next;
            }
        }
        rows.push(env.project(&q.select)?);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{eval_node_query, eval_node_query_with_bindings, VarDecl};
    use webdis_html::parse_html;
    use webdis_model::Url;

    fn db() -> NodeDb {
        let html = r#"<title>Index of Labs</title>
            <body>
            <a href="http://dsl.serc.iisc.ernet.in/">Database Systems Lab</a>
            <a href="local.html">Local page</a>
            <a href="http://compiler.csa.iisc.ernet.in/">Compiler Lab</a>
            Convener Jayant Haritsa<hr>
            </body>"#;
        NodeDb::build(
            &Url::parse("http://csa.iisc.ernet.in/Labs").unwrap(),
            &parse_html(html),
        )
    }

    fn attr(var: &str, a: &str) -> Expr {
        Expr::Attr {
            var: var.into(),
            attr: a.into(),
        }
    }

    fn decl(name: &str, kind: RelKind) -> VarDecl {
        VarDecl {
            name: name.into(),
            kind,
            cond: None,
        }
    }

    fn contains(var: &str, a: &str, s: &str) -> Expr {
        Expr::Contains(Box::new(attr(var, a)), Box::new(Expr::StrLit(s.into())))
    }

    fn da_query(where_cond: Option<Expr>) -> NodeQuery {
        NodeQuery {
            vars: vec![decl("d", RelKind::Document), decl("a", RelKind::Anchor)],
            where_cond,
            select: vec![("a".into(), "href".into())],
        }
    }

    #[test]
    fn canonical_form_ignores_variable_names_and_clause_placement() {
        // Same shape, different names, condition as `where`…
        let a = da_query(Some(contains("a", "label", "Lab")));
        // …vs as a `such that` on the anchor declaration with new names.
        let b = NodeQuery {
            vars: vec![
                decl("x", RelKind::Document),
                VarDecl {
                    name: "y".into(),
                    kind: RelKind::Anchor,
                    cond: Some(contains("y", "label", "Lab")),
                },
            ],
            where_cond: None,
            select: vec![("y".into(), "href".into())],
        };
        assert_eq!(
            canonicalize(&a).fingerprint(),
            canonicalize(&b).fingerprint()
        );
    }

    #[test]
    fn conjunct_sets_expose_subsumption() {
        let narrow = da_query(Some(Expr::And(
            Box::new(contains("a", "label", "Lab")),
            Box::new(contains("a", "href", "dsl")),
        )));
        let wide = da_query(Some(contains("a", "label", "Lab")));
        let (cn, cw) = (canonicalize(&narrow), canonicalize(&wide));
        assert!(cw.conjunct_set().is_subset(&cn.conjunct_set()));
        assert!(!cn.conjunct_set().is_subset(&cw.conjunct_set()));
        assert_ne!(cn.fingerprint(), cw.fingerprint());
        assert_eq!(cn.kinds_key(), "document,anchor");
    }

    #[test]
    fn ordered_comparisons_disable_subsumption_serving() {
        let q = da_query(Some(Expr::Cmp(
            CmpOp::Gt,
            Box::new(attr("d", "length")),
            Box::new(Expr::IntLit(0)),
        )));
        assert!(!canonicalize(&q).total_on_err);
        let eq = da_query(Some(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "ltype")),
            Box::new(Expr::StrLit("G".into())),
        )));
        assert!(canonicalize(&eq).total_on_err);
    }

    #[test]
    fn replay_with_residual_matches_direct_evaluation() {
        let db = db();
        let wide = da_query(Some(contains("a", "label", "Lab")));
        let (rows, bindings, _) = eval_node_query_with_bindings(&db, &wide).unwrap();
        assert_eq!(rows.len(), bindings.len());

        // The narrow query adds one conjunct; replaying the wide query's
        // bindings through the residual must equal full evaluation —
        // rows *and* order.
        let narrow = da_query(Some(Expr::And(
            Box::new(contains("a", "label", "Lab")),
            Box::new(contains("a", "href", "dsl")),
        )));
        let residual = contains("a", "href", "dsl");
        let replayed = replay_bindings(&db, &narrow, &bindings, &[&residual]).unwrap();
        assert_eq!(replayed, eval_node_query(&db, &narrow).unwrap());
        assert_eq!(replayed.len(), 1);
    }

    #[test]
    fn replay_reprojects_for_a_different_select_list() {
        let db = db();
        let wide = da_query(Some(contains("a", "label", "Lab")));
        let (_, bindings, _) = eval_node_query_with_bindings(&db, &wide).unwrap();
        let mut reselect = wide.clone();
        reselect.select = vec![("a".into(), "label".into()), ("d".into(), "url".into())];
        let replayed = replay_bindings(&db, &reselect, &bindings, &[]).unwrap();
        assert_eq!(replayed, eval_node_query(&db, &reselect).unwrap());
        assert_eq!(replayed[0].values.len(), 2);
    }

    #[test]
    fn replay_rejects_stale_bindings() {
        let db = db();
        let q = da_query(None);
        let bad = vec![vec![0u32, 99u32]];
        assert!(replay_bindings(&db, &q, &bad, &[]).is_err());
        let short = vec![vec![0u32]];
        assert!(replay_bindings(&db, &q, &short, &[]).is_err());
    }
}
