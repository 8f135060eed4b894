//! Per-node persistent indexes over the virtual relations.
//!
//! The paper's Database Constructor materializes DOCUMENT/ANCHOR/RELINFON
//! per node and the evaluator scans them; that is fine for 1999-sized
//! pages but hopeless once a site's index page carries 10^5 anchors. These
//! sidecar indexes let the planner turn `contains` and equality conjuncts
//! into posting-list probes. Each one is built on the first probe of its
//! column and kept in its [`crate::relation::NodeDb`],
//! so it lives exactly as long as the footnote-3 document cache keeps the
//! database, and a visit never pays for a column it does not probe.
//!
//! Two index shapes cover the predicate language:
//!
//! * [`TextIndex`] — an inverted index for `contains`: the rendered column
//!   value is ASCII-lowercased and split into maximal alphanumeric runs
//!   (tokens); each token maps to the sorted list of tuple indices it
//!   occurs in. A needle that is itself one alphanumeric run cannot span a
//!   token boundary, so the union of postings of all dictionary tokens
//!   containing the needle is *exactly* the set of matching tuples — not
//!   a superset — and no residual re-check is needed. Needles with
//!   non-alphanumeric bytes (or empty ones) are not index-servable and
//!   stay with the scan/residual path.
//! * [`HashIndex`] — rendered value → sorted tuple indices, for equality
//!   against non-numeric literals (`a.ltype = "G"`, `a.href = "http://…"`).
//!   Numeric-looking literals are excluded by the planner because `=`
//!   coerces both sides to integers when possible (`" 42 " = "42"` holds
//!   numerically but would miss in a string-keyed hash).
//!
//! All posting lists are ascending, so intersections preserve the scan's
//! tuple enumeration order and planned evaluation returns rows in exactly
//! the order the cross-product scan would.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use crate::query::RelKind;
use crate::relation::{NodeDb, Relation};

/// The hash-indexed columns, which serve equality probes.
const HASH_COLUMNS: [(RelKind, &str); 5] = [
    (RelKind::Document, "url"),
    (RelKind::Anchor, "href"),
    (RelKind::Anchor, "ltype"),
    (RelKind::Relinfon, "delimiter"),
    (RelKind::Relinfon, "url"),
];

/// The text-indexed columns, which serve `contains` probes.
const TEXT_COLUMNS: [(RelKind, &str); 4] = [
    (RelKind::Document, "title"),
    (RelKind::Document, "text"),
    (RelKind::Anchor, "label"),
    (RelKind::Relinfon, "text"),
];

/// Position of `kind.attr` (case-insensitive) in a column table.
fn configured(cols: &[(RelKind, &str)], kind: RelKind, attr: &str) -> Option<usize> {
    cols.iter()
        .position(|(k, c)| *k == kind && c.eq_ignore_ascii_case(attr))
}

/// True when `kind.attr` is configured for a hash (equality) index — the
/// planner's admissibility check, independent of any particular database.
pub fn hash_indexed(kind: RelKind, attr: &str) -> bool {
    configured(&HASH_COLUMNS, kind, attr).is_some()
}

/// True when `kind.attr` is configured for an inverted text index.
pub fn text_indexed(kind: RelKind, attr: &str) -> bool {
    configured(&TEXT_COLUMNS, kind, attr).is_some()
}

/// Equality index: exact rendered value → ascending tuple indices.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: HashMap<String, Vec<u32>>,
}

impl HashIndex {
    /// Builds the index over one column of a relation.
    pub fn build(rel: &Relation, col: usize) -> HashIndex {
        let mut map: HashMap<String, Vec<u32>> = HashMap::new();
        for (idx, tuple) in rel.tuples.iter().enumerate() {
            if let Some(v) = tuple.get(col) {
                map.entry(v.render()).or_default().push(idx as u32);
            }
        }
        HashIndex { map }
    }

    /// Tuple indices whose column renders exactly as `value`.
    pub fn probe(&self, value: &str) -> &[u32] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn keys(&self) -> usize {
        self.map.len()
    }
}

/// Inverted text index: case-folded token → ascending tuple indices.
///
/// The dictionary is a `BTreeMap` so `probe_contains` walks it in a
/// deterministic order and index memory layout is reproducible.
#[derive(Debug, Clone, Default)]
pub struct TextIndex {
    tokens: BTreeMap<String, Vec<u32>>,
}

impl TextIndex {
    /// Builds the index over one column of a relation.
    pub fn build(rel: &Relation, col: usize) -> TextIndex {
        let mut tokens: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for (idx, tuple) in rel.tuples.iter().enumerate() {
            let Some(v) = tuple.get(col) else { continue };
            let folded = v.render().to_ascii_lowercase();
            for token in folded
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|t| !t.is_empty())
            {
                let postings = tokens.entry(token.to_owned()).or_default();
                if postings.last() != Some(&(idx as u32)) {
                    postings.push(idx as u32);
                }
            }
        }
        TextIndex { tokens }
    }

    /// True when a (case-folded) needle can be answered exactly from the
    /// token dictionary: non-empty and a single alphanumeric run, so it
    /// cannot straddle a token boundary in any haystack.
    pub fn indexable(needle: &str) -> bool {
        !needle.is_empty() && needle.bytes().all(|b| b.is_ascii_alphanumeric())
    }

    /// Tuple indices whose column `contains` the needle
    /// (case-insensitive), or `None` when the needle is not
    /// index-servable and the caller must fall back to scanning.
    pub fn probe_contains(&self, needle: &str) -> Option<Vec<u32>> {
        let folded = needle.to_ascii_lowercase();
        if !Self::indexable(&folded) {
            return None;
        }
        let mut lists: Vec<&[u32]> = Vec::new();
        for (token, postings) in &self.tokens {
            if token.contains(&folded) {
                lists.push(postings);
            }
        }
        Some(union_sorted(&lists))
    }

    /// Number of distinct tokens.
    pub fn tokens(&self) -> usize {
        self.tokens.len()
    }
}

/// K-way union of ascending posting lists into one ascending, deduplicated
/// list.
fn union_sorted(lists: &[&[u32]]) -> Vec<u32> {
    match lists {
        [] => Vec::new(),
        [one] => one.to_vec(),
        _ => {
            let mut all: Vec<u32> = lists.iter().flat_map(|l| l.iter().copied()).collect();
            all.sort_unstable();
            all.dedup();
            all
        }
    }
}

/// Intersection of two ascending posting lists.
pub(crate) fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The indexes of one node's database: one slot per configured column,
/// empty until the first probe of that column fills it.
///
/// `NodeDb::build` only declares the slots, so a visit pays for exactly
/// the indexes its node-query probes. Filled slots live as long as the
/// `NodeDb`, so the footnote-3 document cache keeps them for every later
/// query it serves, and a clone keeps the slots it had.
#[derive(Debug, Clone, Default)]
pub(crate) struct DbIndexes {
    hash: [OnceLock<HashIndex>; HASH_COLUMNS.len()],
    text: [OnceLock<TextIndex>; TEXT_COLUMNS.len()],
}

/// The slot of `cols` configured for `kind.attr`, built from `db` on first
/// use.
fn get_or_build<'a, T>(
    slots: &'a [OnceLock<T>],
    cols: &[(RelKind, &str)],
    db: &'a NodeDb,
    kind: RelKind,
    attr: &str,
    build: fn(&Relation, usize) -> T,
) -> Option<&'a T> {
    let slot = configured(cols, kind, attr)?;
    let rel = db.relation(kind);
    let col = rel.schema.column_index(attr)?;
    Some(slots[slot].get_or_init(|| build(rel, col)))
}

impl NodeDb {
    /// The equality index on `kind.attr`, built by this call if it is the
    /// column's first probe; `None` when the column is not hash-indexed.
    pub(crate) fn hash_index(&self, kind: RelKind, attr: &str) -> Option<&HashIndex> {
        get_or_build(
            &self.indexes.hash,
            &HASH_COLUMNS,
            self,
            kind,
            attr,
            HashIndex::build,
        )
    }

    /// The inverted text index on `kind.attr`, built by this call if it is
    /// the column's first probe; `None` when the column is not
    /// text-indexed.
    pub(crate) fn text_index(&self, kind: RelKind, attr: &str) -> Option<&TextIndex> {
        get_or_build(
            &self.indexes.text,
            &TEXT_COLUMNS,
            self,
            kind,
            attr,
            TextIndex::build,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::{eval_node_query, NodeQuery, VarDecl};
    use crate::relation::ANCHOR_SCHEMA;
    use crate::value::{Tuple, Value};
    use webdis_html::parse_html;
    use webdis_model::Url;

    fn anchors(labels: &[(&str, &str, &str)]) -> Relation {
        Relation {
            schema: ANCHOR_SCHEMA,
            tuples: labels
                .iter()
                .map(|(label, href, ltype)| {
                    Tuple(vec![
                        Value::Str((*label).into()),
                        Value::Str("http://h/".into()),
                        Value::Str((*href).into()),
                        Value::Str((*ltype).into()),
                    ])
                })
                .collect(),
        }
    }

    #[test]
    fn hash_index_probes_exact_rendered_values() {
        let rel = anchors(&[
            ("a", "http://x/", "G"),
            ("b", "http://y/", "L"),
            ("c", "http://x/", "G"),
        ]);
        let idx = HashIndex::build(&rel, 2);
        assert_eq!(idx.probe("http://x/"), &[0, 2]);
        assert_eq!(idx.probe("http://y/"), &[1]);
        assert_eq!(idx.probe("http://z/"), &[] as &[u32]);
        assert_eq!(idx.keys(), 2);
    }

    #[test]
    fn text_index_tokenizes_case_folded_alnum_runs() {
        let rel = anchors(&[
            ("Database Systems Lab", "x", "L"),
            ("the lab-notes page", "x", "L"),
            ("unrelated", "x", "L"),
        ]);
        let idx = TextIndex::build(&rel, 0);
        // "lab" matches tokens "lab" (rows 0, 1) and nothing else; token
        // "laboratories" would match too via substring.
        assert_eq!(idx.probe_contains("Lab"), Some(vec![0, 1]));
        assert_eq!(idx.probe_contains("systems"), Some(vec![0]));
        assert_eq!(idx.probe_contains("zzz"), Some(vec![]));
    }

    #[test]
    fn text_index_substring_of_token_matches() {
        let rel = anchors(&[("Laboratories", "x", "L"), ("collaborate", "x", "L")]);
        let idx = TextIndex::build(&rel, 0);
        // "labor" is inside both "laboratories" and "collaborate".
        assert_eq!(idx.probe_contains("labor"), Some(vec![0, 1]));
    }

    #[test]
    fn non_alnum_needle_is_not_servable() {
        let rel = anchors(&[("a b", "x", "L")]);
        let idx = TextIndex::build(&rel, 0);
        assert_eq!(idx.probe_contains("a b"), None);
        assert_eq!(idx.probe_contains(""), None);
        assert_eq!(idx.probe_contains("é"), None);
    }

    #[test]
    fn duplicate_token_in_one_tuple_posted_once() {
        let rel = anchors(&[("lab lab lab", "x", "L")]);
        let idx = TextIndex::build(&rel, 0);
        assert_eq!(idx.probe_contains("lab"), Some(vec![0]));
    }

    #[test]
    fn intersect_and_union_are_ordered() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 9], &[2, 3, 9]), vec![3, 9]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
        assert_eq!(union_sorted(&[&[1, 4], &[2, 4, 7]]), vec![1, 2, 4, 7]);
    }

    fn lab_db() -> NodeDb {
        NodeDb::build(
            &Url::parse("http://h/labs.html").unwrap(),
            &parse_html(
                r#"<title>Index of Labs</title>
                <a href="http://x/">Database Lab</a><a href="b.html">Local</a>"#,
            ),
        )
    }

    /// The configured columns whose index slot is filled, hash columns
    /// first, each group in configuration order.
    fn built(db: &NodeDb) -> Vec<(RelKind, &'static str)> {
        let hash = HASH_COLUMNS.iter().zip(&db.indexes.hash);
        let text = TEXT_COLUMNS.iter().zip(&db.indexes.text);
        let hash = hash.filter(|(_, s)| s.get().is_some()).map(|(c, _)| *c);
        let text = text.filter(|(_, s)| s.get().is_some()).map(|(c, _)| *c);
        hash.chain(text).collect()
    }

    /// `select d.url from document d where d.title contains <needle>`.
    fn title_contains(needle: &str) -> NodeQuery {
        NodeQuery {
            vars: vec![VarDecl {
                name: "d".into(),
                kind: RelKind::Document,
                cond: None,
            }],
            where_cond: Some(Expr::Contains(
                Box::new(Expr::Attr {
                    var: "d".into(),
                    attr: "title".into(),
                }),
                Box::new(Expr::StrLit(needle.into())),
            )),
            select: vec![("d".into(), "url".into())],
        }
    }

    #[test]
    fn fresh_node_db_has_no_index_built() {
        assert!(built(&lab_db()).is_empty());
    }

    #[test]
    fn title_probe_builds_only_the_title_index() {
        let db = lab_db();
        assert_eq!(
            eval_node_query(&db, &title_contains("labs")).unwrap().len(),
            1
        );
        assert_eq!(built(&db), vec![(RelKind::Document, "title")]);
    }

    #[test]
    fn second_probe_reuses_the_built_index() {
        let db = lab_db();
        eval_node_query(&db, &title_contains("labs")).unwrap();
        let first: *const TextIndex = db.text_index(RelKind::Document, "TITLE").unwrap();
        assert!(eval_node_query(&db, &title_contains("zzz"))
            .unwrap()
            .is_empty());
        let second: *const TextIndex = db.text_index(RelKind::Document, "title").unwrap();
        assert!(std::ptr::eq(first, second));
        assert_eq!(built(&db), vec![(RelKind::Document, "title")]);
    }

    #[test]
    fn clone_keeps_the_slots_it_had() {
        let db = lab_db();
        eval_node_query(&db, &title_contains("labs")).unwrap();
        let copy = db.clone();
        assert_eq!(built(&copy), vec![(RelKind::Document, "title")]);
        assert_eq!(
            copy.hash_index(RelKind::Anchor, "ltype")
                .unwrap()
                .probe("G"),
            &[0]
        );
        assert_eq!(
            built(&copy),
            vec![(RelKind::Anchor, "ltype"), (RelKind::Document, "title")]
        );
        assert_eq!(built(&db), vec![(RelKind::Document, "title")]);
    }

    #[test]
    fn unconfigured_column_has_no_slot() {
        let db = lab_db();
        assert!(db.hash_index(RelKind::Anchor, "base").is_none());
        assert!(db.text_index(RelKind::Anchor, "href").is_none());
        assert!(built(&db).is_empty());
    }
}
