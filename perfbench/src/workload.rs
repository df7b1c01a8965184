//! The four workloads: the shared document, each workload's query pool,
//! the seeded request streams, and the edit scripts of `edit-mix`.
//!
//! Everything here is a pure function of the seed, so a traced run can
//! replay exactly the stream an untraced run sent over the wire.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use treequery_core::obs::Json;
use treequery_core::tree::{render_script, xmark_document, EditOp, Tree, XmarkConfig};
use treequery_core::{Document, Query};

/// Seed of the one XMark document every workload runs on.
pub const DOC_SEED: u64 = 7;
/// Target size handed to `XmarkConfig::scaled_to` (yields 39,607 nodes).
pub const DOC_SCALE: usize = 20_000;
/// Catalog name the document is loaded under.
pub const DOC_NAME: &str = "xmark";
/// Inserted leaves kept live by `edit-mix`: once more are live, each
/// script deletes the oldest, so node count stays in `[N, N + K]`.
pub const LIVE_LEAVES: usize = 8;
/// Open-loop writer rate (scripts per second).
pub const EDIT_RATE: f64 = 30.0;

/// The XMark document all workloads query.
pub fn document() -> Tree {
    xmark_document(
        &mut StdRng::seed_from_u64(DOC_SEED),
        &XmarkConfig::scaled_to(DOC_SCALE),
    )
}

/// Query language of a pool entry, as named on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lang {
    XPath,
    Cq,
    Datalog,
}

impl Lang {
    pub fn wire_name(self) -> &'static str {
        match self {
            Lang::XPath => "xpath",
            Lang::Cq => "cq",
            Lang::Datalog => "datalog",
        }
    }

    pub fn parse(wire_name: &str) -> Option<Lang> {
        [Lang::XPath, Lang::Cq, Lang::Datalog]
            .into_iter()
            .find(|l| l.wire_name() == wire_name)
    }

    pub fn query(self, text: &str) -> Query {
        match self {
            Lang::XPath => Query::xpath(text),
            Lang::Cq => Query::cq(text),
            Lang::Datalog => Query::datalog(text),
        }
    }
}

/// Core XPath with every answer ≤ ~600 rows (replies under 8 KiB). Every
/// step names a label, so no answer can contain an `edit-mix` leaf.
const NAVIGATE: &[(Lang, &str)] = &[
    (Lang::XPath, "/site/people/person/name"),
    (Lang::XPath, "//person[profile]/name"),
    (Lang::XPath, "//person[address]/emailaddress"),
    (Lang::XPath, "//person[watches/watch]/homepage"),
    (Lang::XPath, "//person[profile/interest]/emailaddress"),
    (Lang::XPath, "//person/address/city"),
    (Lang::XPath, "//item[incategory]/location"),
    (Lang::XPath, "//africa/item/name"),
    (Lang::XPath, "//europe/item[shipping]/payment"),
    (Lang::XPath, "//asia/item/description/text"),
    (Lang::XPath, "//open_auction/bidder/personref"),
    (Lang::XPath, "//open_auction[bidder]/seller"),
    (Lang::XPath, "//open_auction/interval/end"),
    (Lang::XPath, "//closed_auction/price"),
    (
        Lang::XPath,
        "//closed_auction[annotation/description/parlist]/buyer",
    ),
    (Lang::XPath, "//category/name"),
    (Lang::XPath, "//catgraph/edge/from"),
];

/// Acyclic, `following`-axis, X-property-cyclic CQs and selective
/// datalog: Boolean or ≤ 300 rows, kernel-bound, heavy admission lane.
const JOIN: &[(Lang, &str)] = &[
    (Lang::Cq, "q(x) :- label(x, item), child(x, y), label(y, incategory), descendant(x, z), label(z, listitem)."),
    (Lang::Cq, "q(x) :- label(x, open_auction), child(x, y), label(y, bidder), child(y, z), label(z, personref)."),
    (Lang::Cq, "q(x, y) :- label(x, edge), child(x, y), label(y, to)."),
    (Lang::Cq, "q() :- label(x, bidder), following(x, y), label(y, closed_auction)."),
    (Lang::Cq, "q() :- label(x, bidder), following(x, y), label(y, edge)."),
    (Lang::Cq, "q(x) :- label(x, closed_auction), child(x, y), label(y, buyer), following(y, z), label(z, category)."),
    (Lang::Cq, "q() :- label(x, person), descendant(x, y), label(y, city), following(x, z), label(z, category)."),
    (Lang::Cq, "q(x) :- label(x, category), following(x, y), label(y, edge), descendant(x, z), label(z, parlist)."),
    (Lang::Cq, "q(x) :- label(x, person), child(x, y), label(y, homepage), following(x, z), label(z, open_auction)."),
    (Lang::Cq, "q() :- label(x, open_auction), descendant(x, y), label(y, bidder), descendant(y, z), label(z, personref), descendant(x, z)."),
    (Lang::Cq, "q() :- label(x, item), descendant(x, y), label(y, parlist), descendant(y, z), label(z, listitem), descendant(x, z)."),
    (Lang::Cq, "q() :- label(x, closed_auction), descendant(x, y), label(y, annotation), descendant(y, z), label(z, text), descendant(x, z)."),
    (Lang::Cq, "q() :- label(x, category), descendant(x, y), label(y, parlist), descendant(y, z), label(z, text), descendant(x, z)."),
    (Lang::Cq, "q() :- label(x, regions), descendant(x, y), label(y, item), descendant(y, z), label(z, category_ref), descendant(x, z)."),
    (Lang::Datalog, "P(x) :- label(x, category_ref). Q(x) :- child(x, y), P(y). ?- Q."),
    (Lang::Datalog, "P(x) :- label(x, from). P(x) :- nextsibling(x, y), P(y). ?- P."),
    (Lang::Datalog, "P(x) :- label(x, buyer). Q(x) :- firstchild(x, y), P(y). ?- Q."),
];

/// XPath answering 2,000–8,000 rows: replies of 12–50 KiB.
const BULK: &[(Lang, &str)] = &[
    (Lang::XPath, "//listitem"),
    (Lang::XPath, "//text"),
    (Lang::XPath, "//item/*"),
    (Lang::XPath, "//person/*"),
    (Lang::XPath, "//description//text"),
    (Lang::XPath, "//parlist/listitem/text"),
    (Lang::XPath, "//open_auction/*"),
    (Lang::XPath, "//bidder/*"),
    (Lang::XPath, "//*[text]"),
];

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Navigate,
    Join,
    Bulk,
    EditMix,
}

/// Allowed answer sizes and reply sizes of a workload's queries.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    pub min_rows: usize,
    pub max_rows: usize,
    /// Reply bytes must lie in `[min_bytes, max_bytes)`.
    pub min_bytes: usize,
    pub max_bytes: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Navigate,
        Workload::Join,
        Workload::Bulk,
        Workload::EditMix,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Navigate => "navigate",
            Workload::Join => "join",
            Workload::Bulk => "bulk",
            Workload::EditMix => "edit-mix",
        }
    }

    /// The pool the closed-loop readers draw from (`edit-mix` reads with
    /// the `navigate` pool).
    pub fn pool(self) -> &'static [(Lang, &'static str)] {
        match self {
            Workload::Navigate | Workload::EditMix => NAVIGATE,
            Workload::Join => JOIN,
            Workload::Bulk => BULK,
        }
    }

    /// Closed-loop query connections (`edit-mix` adds one writer).
    pub fn readers(self) -> usize {
        match self {
            Workload::EditMix => 1,
            _ => 2,
        }
    }

    pub fn band(self) -> Band {
        match self {
            Workload::Navigate | Workload::EditMix => Band {
                min_rows: 1,
                max_rows: 700,
                min_bytes: 0,
                max_bytes: 8 << 10,
            },
            Workload::Join => Band {
                min_rows: 0,
                max_rows: 300,
                min_bytes: 0,
                max_bytes: 8 << 10,
            },
            Workload::Bulk => Band {
                min_rows: 2_000,
                max_rows: 8_000,
                min_bytes: 8 << 10,
                max_bytes: 64 << 10,
            },
        }
    }
}

/// The wire line of a pool query (newline included).
pub fn query_line(lang: Lang, text: &str) -> String {
    let mut line = Json::obj()
        .set("verb", "query")
        .set("doc", DOC_NAME)
        .set("lang", lang.wire_name())
        .set("text", text)
        .render();
    line.push('\n');
    line
}

/// The wire line of an edit script (newline included).
pub fn edit_line(script: &str) -> String {
    let mut line = Json::obj()
        .set("verb", "edit")
        .set("doc", DOC_NAME)
        .set("script", script)
        .render();
    line.push('\n');
    line
}

/// Seeded, endless sequence of pool indices for one reader connection:
/// rounds that each visit every pool entry once, in a seeded order. The
/// query mix is then the same for every seed and run length, so only the
/// order varies.
pub struct QueryStream {
    rng: StdRng,
    pool_len: usize,
    /// What is left of the current round.
    round: Vec<usize>,
}

impl QueryStream {
    pub fn new(seed: u64, conn: usize, pool_len: usize) -> QueryStream {
        let mix = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn as u64 + 1);
        QueryStream {
            rng: StdRng::seed_from_u64(mix),
            pool_len,
            round: Vec::with_capacity(pool_len),
        }
    }
}

impl Iterator for QueryStream {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.round.is_empty() {
            self.round.extend(0..self.pool_len);
            self.round.shuffle(&mut self.rng);
        }
        self.round.pop()
    }
}

/// The `edit-mix` writer's scripts, with what the server must answer
/// after each one. Version `v` is the document after `v` scripts.
pub struct EditPlan {
    pub scripts: Vec<Vec<EditOp>>,
    /// Wire text of each script.
    pub texts: Vec<String>,
    /// Node count after script `i` (version `i + 1`).
    pub nodes: Vec<usize>,
    /// Tree fingerprint after script `i`.
    pub fingerprints: Vec<u64>,
    /// Sorted pre ranks of the live inserted leaves at each version
    /// (`live_pres[0]` is the unedited document: empty).
    pub live_pres: Vec<Vec<u32>>,
    /// Node count of the unedited document.
    pub base_nodes: usize,
}

/// Pre rank, in the current tree, of the node at `orig_pre` in the
/// unedited tree, given the sorted pre ranks of the live inserted leaves.
pub fn shift_pre(orig_pre: u32, live_sorted: &[u32]) -> u32 {
    let mut pre = orig_pre;
    for &l in live_sorted {
        if l <= pre {
            pre += 1;
        }
    }
    pre
}

/// Generates `count` scripts against a mirror document. Each script
/// inserts a leaf under a seeded node of the original document, relabels
/// a seeded live inserted leaf, and deletes the oldest inserted leaf once
/// more than [`LIVE_LEAVES`] are live. No leaf goes under an inserted
/// leaf.
pub fn edit_plan(tree: &Tree, seed: u64, count: usize) -> EditPlan {
    let base_nodes = tree.len();
    let mut doc = Document::new(tree.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED17_ED17);
    let mut live: VecDeque<String> = VecDeque::new();
    let live_pres_of = |doc: &Document, live: &VecDeque<String>| -> Vec<u32> {
        let t = doc.tree();
        let mut pres: Vec<u32> = live
            .iter()
            .map(|l| t.pre(t.nodes_with_label_name(l)[0]))
            .collect();
        pres.sort_unstable();
        pres
    };
    let mut plan = EditPlan {
        scripts: Vec::with_capacity(count),
        texts: Vec::with_capacity(count),
        nodes: Vec::with_capacity(count),
        fingerprints: Vec::with_capacity(count),
        live_pres: vec![Vec::new()],
        base_nodes,
    };
    for i in 0..count {
        let mut ops = Vec::with_capacity(3);
        let mut apply = |doc: &mut Document, op: EditOp| {
            doc.edit(&op).expect("benchmark edits never normalize away");
            ops.push(op);
        };

        let orig_parent = rng.gen_range(0..base_nodes as u32);
        let parent_pre = shift_pre(orig_parent, plan.live_pres.last().expect("v0"));
        let fanout = {
            let t = doc.tree();
            t.children(t.node_at_pre(parent_pre)).count() as u32
        };
        let child_idx = rng.gen_range(0..=fanout);
        let inserted = format!("n{i}");
        apply(
            &mut doc,
            EditOp::InsertLeaf {
                parent_pre,
                child_idx,
                label: inserted.clone(),
            },
        );
        live.push_back(inserted);

        let j = rng.gen_range(0..live.len());
        let relabelled = format!("r{i}");
        let pre = {
            let t = doc.tree();
            t.pre(t.nodes_with_label_name(&live[j])[0])
        };
        apply(
            &mut doc,
            EditOp::Relabel {
                pre,
                label: relabelled.clone(),
            },
        );
        live[j] = relabelled;

        if live.len() > LIVE_LEAVES {
            let oldest = live.pop_front().expect("non-empty");
            let pre = {
                let t = doc.tree();
                t.pre(t.nodes_with_label_name(&oldest)[0])
            };
            apply(&mut doc, EditOp::DeleteSubtree { pre });
        }

        plan.texts.push(render_script(&ops));
        plan.scripts.push(ops);
        plan.nodes.push(doc.tree().len());
        plan.fingerprints.push(doc.fingerprint());
        plan.live_pres.push(live_pres_of(&doc, &live));
    }
    plan
}
