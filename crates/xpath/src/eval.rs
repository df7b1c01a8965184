//! The efficient set-at-a-time Core XPath evaluator.
//!
//! Every construct is evaluated on whole node sets: a step is one O(n)
//! axis-image sweep plus qualifier intersections, a qualifier is one node
//! set (the nodes where it holds), and existential path qualifiers are
//! computed *backwards* through [`sources`] (preimages). Total time
//! `O(|D| · |Q|)` — the combined complexity discussed in Section 4 for
//! Core XPath via FO² (the PTime upper bound; data complexity is linear).
//!
//! The axis sweeps run through an [`AxisSweeper`]: [`eval_query_with`]
//! takes the caller's (e.g. a chunked parallel kernel), the other entry
//! points use [`SeqSweeper`]. The set algebra around the sweeps is the
//! same either way, so every exact sweeper yields the same bits.

use treequery_cq::{AxisSweeper, SeqSweeper};
use treequery_tree::{cancel, scratch, Axis, NodeSet, Tree};

use crate::ast::{Path, Qual};

/// The nodes on which a qualifier holds. O(n · |q|). Returns a pooled set.
fn qual_nodes(q: &Qual, t: &Tree, sw: &(impl AxisSweeper + ?Sized)) -> NodeSet {
    match q {
        Qual::Label(l) => {
            let mut s = scratch::take_set(t.len());
            for &v in t.nodes_with_label_name(l) {
                s.insert(v);
            }
            s
        }
        Qual::Path(p) => {
            let full = scratch::take_full(t.len());
            let out = sources_with(p, t, &full, sw);
            scratch::put_set(full);
            out
        }
        Qual::And(a, b) => {
            let mut s = qual_nodes(a, t, sw);
            let other = qual_nodes(b, t, sw);
            s.intersect_with(&other);
            scratch::put_set(other);
            s
        }
        Qual::Or(a, b) => {
            let mut s = qual_nodes(a, t, sw);
            let other = qual_nodes(b, t, sw);
            s.union_with(&other);
            scratch::put_set(other);
            s
        }
        Qual::Not(inner) => {
            let mut s = qual_nodes(inner, t, sw);
            s.complement();
            s
        }
    }
}

/// The nodes a step can land on: all nodes passing the step's qualifiers.
/// Returns a pooled set.
fn step_filter(quals: &[Qual], t: &Tree, sw: &(impl AxisSweeper + ?Sized)) -> NodeSet {
    let mut s = scratch::take_full(t.len());
    for q in quals {
        let qn = qual_nodes(q, t, sw);
        s.intersect_with(&qn);
        scratch::put_set(qn);
    }
    s
}

/// Forward image: `⋃ { [[p]](n) : n ∈ from }`. O(n · |p|).
///
/// The result comes from the thread-local scratch pools; recycle it with
/// [`scratch::put_set`] to keep repeated evaluation allocation-free.
pub fn select(p: &Path, t: &Tree, from: &NodeSet) -> NodeSet {
    select_with(p, t, from, &SeqSweeper)
}

fn select_with(p: &Path, t: &Tree, from: &NodeSet, sw: &(impl AxisSweeper + ?Sized)) -> NodeSet {
    // Cancellation checkpoint, once per location step (each step is one
    // O(n) sweep — the sweep chunk). A cancelled query unwinds the step
    // recursion with empty sets; the executor discards the partial.
    if cancel::cancelled() {
        return scratch::take_set(t.len());
    }
    match p {
        Path::Step { axis, quals } => {
            let mut img = scratch::take_set(t.len());
            sw.image_into(*axis, t, from, &mut img);
            let filter = step_filter(quals, t, sw);
            img.intersect_with(&filter);
            scratch::put_set(filter);
            img
        }
        Path::Seq(p1, p2) => {
            let mid = select_with(p1, t, from, sw);
            let out = select_with(p2, t, &mid, sw);
            scratch::put_set(mid);
            out
        }
        Path::Union(p1, p2) => {
            let mut s = select_with(p1, t, from, sw);
            let other = select_with(p2, t, from, sw);
            s.union_with(&other);
            scratch::put_set(other);
            s
        }
    }
}

/// Backward image: `{ n : [[p]](n) ∩ targets ≠ ∅ }`. O(n · |p|).
/// Returns a pooled set (see [`select`]).
pub fn sources(p: &Path, t: &Tree, targets: &NodeSet) -> NodeSet {
    sources_with(p, t, targets, &SeqSweeper)
}

fn sources_with(
    p: &Path,
    t: &Tree,
    targets: &NodeSet,
    sw: &(impl AxisSweeper + ?Sized),
) -> NodeSet {
    // Checkpoint per backward step; see `select_with`.
    if cancel::cancelled() {
        return scratch::take_set(t.len());
    }
    match p {
        Path::Step { axis, quals } => {
            let mut tgt = scratch::take_set(t.len());
            tgt.copy_from(targets);
            let filter = step_filter(quals, t, sw);
            tgt.intersect_with(&filter);
            scratch::put_set(filter);
            let mut out = scratch::take_set(t.len());
            sw.preimage_into(*axis, t, &tgt, &mut out);
            scratch::put_set(tgt);
            out
        }
        Path::Seq(p1, p2) => {
            let mid = sources_with(p2, t, targets, sw);
            let out = sources_with(p1, t, &mid, sw);
            scratch::put_set(mid);
            out
        }
        Path::Union(p1, p2) => {
            let mut s = sources_with(p1, t, targets, sw);
            let other = sources_with(p2, t, targets, sw);
            s.union_with(&other);
            scratch::put_set(other);
            s
        }
    }
}

/// Evaluates `p` relative to a set of context nodes (the paper's
/// `[[p]]NodeSet` lifted to sets). Returns a pooled set (see [`select`]).
pub fn eval(p: &Path, t: &Tree, context: &NodeSet) -> NodeSet {
    select(p, t, context)
}

/// Evaluates the unary query from the virtual document node: `/a` tests
/// the root element, `//a` selects all `a` nodes (same convention as
/// [`crate::eval_reference`]). Returns a pooled set (see [`select`]).
pub fn eval_query(p: &Path, t: &Tree) -> NodeSet {
    eval_query_with(p, t, &SeqSweeper)
}

/// [`eval_query`] with every axis image and preimage run by `sw` (e.g. a
/// chunked parallel sweeper). Same bits as [`eval_query`] for any sweeper
/// that writes exact images.
pub fn eval_query_with(p: &Path, t: &Tree, sw: &(impl AxisSweeper + ?Sized)) -> NodeSet {
    match p {
        Path::Step { axis, quals } => {
            let mut out = match axis {
                Axis::Child => {
                    let mut s = scratch::take_set(t.len());
                    s.insert(t.root());
                    s
                }
                Axis::Descendant | Axis::DescendantOrSelf => scratch::take_full(t.len()),
                _ => scratch::take_set(t.len()),
            };
            let filter = step_filter(quals, t, sw);
            out.intersect_with(&filter);
            scratch::put_set(filter);
            out
        }
        Path::Seq(p1, p2) => {
            let first = eval_query_with(p1, t, sw);
            let out = select_with(p2, t, &first, sw);
            scratch::put_set(first);
            out
        }
        Path::Union(p1, p2) => {
            let mut s = eval_query_with(p1, t, sw);
            let other = eval_query_with(p2, t, sw);
            s.union_with(&other);
            scratch::put_set(other);
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xpath;
    use crate::reference::eval_reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use treequery_tree::{parse_term, random_recursive_tree, xmark_document, XmarkConfig};

    /// The fast evaluator agrees with the literal (P1)–(P4)/(Q1)–(Q5)
    /// semantics across a battery of queries and trees.
    #[test]
    fn agrees_with_reference() {
        let queries = [
            "/r",
            "//a",
            "//a/b",
            "//a[b]/c",
            "//a[not(b)]",
            "//a[b or not(c and lab()=a)]",
            "//a/following-sibling::b",
            "//b/parent::a",
            "//a[ancestor::b]",
            "//a/descendant-or-self::*[lab()=c]",
            "//a[following::c]",
            "//c/preceding::a",
            "//a | //b[c]",
            "/r/*[not(following-sibling::*)]",
            "//a[./b/..[c]]",
            "//*[self::a or self::b]/child::c",
        ];
        let trees = [
            "r(a(b c) b(a(c) c) a)",
            "r(a(a(a(b))) c)",
            "r(x y z)",
            "a",
            "r(a(b(c) b) a(c(b)) b(a))",
        ];
        for qs in queries {
            let q = parse_xpath(qs).unwrap();
            for ts in trees {
                let t = parse_term(ts).unwrap();
                assert_eq!(eval_query(&q, &t), eval_reference(&q, &t), "{qs} on {ts}");
            }
        }
    }

    #[test]
    fn agrees_with_reference_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(21);
        let queries = [
            "//a[b]/c",
            "//a[not(b or c)]",
            "//b/ancestor::a[following-sibling::c]",
            "//a//b[not(parent::a)]",
        ];
        for _ in 0..10 {
            let t = random_recursive_tree(&mut rng, 80, &["a", "b", "c", "r"]);
            for qs in queries {
                let q = parse_xpath(qs).unwrap();
                assert_eq!(eval_query(&q, &t), eval_reference(&q, &t), "{qs} on {t}");
            }
        }
    }

    #[test]
    fn xmark_queries() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = xmark_document(&mut rng, &XmarkConfig::default());
        // Every person with an address has street and city.
        let q = parse_xpath("//person[address]").unwrap();
        let with_addr = eval_query(&q, &t);
        let q2 = parse_xpath("//person[address/street and address/city]").unwrap();
        assert_eq!(eval_query(&q2, &t), with_addr);
        // Auctions with at least one bidder.
        let q3 = parse_xpath("//open_auction[bidder]").unwrap();
        let q4 = parse_xpath("//open_auction[not(not(bidder/increase))]").unwrap();
        assert_eq!(eval_query(&q3, &t), eval_query(&q4, &t));
        // Items in African region.
        let q5 = parse_xpath("/site/regions/africa/item").unwrap();
        assert_eq!(
            eval_query(&q5, &t).len(),
            XmarkConfig::default().items_per_region
        );
    }

    #[test]
    fn relative_eval_from_context() {
        let t = parse_term("r(a(b) a(c))").unwrap();
        let ctx = NodeSet::from_iter(t.len(), t.nodes_with_label_name("a").iter().copied());
        let q = parse_xpath("child::*").unwrap();
        let res = eval(&q, &t, &ctx);
        assert_eq!(res.len(), 2); // b and c
    }

    #[test]
    fn sources_is_preimage_of_select() {
        let t = parse_term("r(a(b c) b(c))").unwrap();
        let q = parse_xpath("child::b/child::c").unwrap();
        let src = sources(&q, &t, &NodeSet::full(t.len()));
        // Exactly the nodes from which the path selects something.
        for n in t.nodes() {
            let sel = select(&q, &t, &NodeSet::singleton(t.len(), n));
            assert_eq!(src.contains(n), !sel.is_empty(), "{n:?}");
        }
    }
}
