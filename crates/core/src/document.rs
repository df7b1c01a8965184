//! Mutable documents: an editable tree plus every piece of per-tree
//! derived state the query pipeline consults, each maintained
//! *incrementally* under edits.
//!
//! [`crate::Engine`] is deliberately bound to one frozen tree — that is
//! what makes its lazily computed statistics, fingerprint, and cached
//! plans coherent. [`Document`] is the mutable layer above it: it owns an
//! [`EditableTree`] and keeps, across [`Document::edit`] calls,
//!
//! * [`plan::IncrementalStats`] — the planner's [`plan::TreeStats`]
//!   inputs as histograms, point-updated per edit;
//! * the tree fingerprint as its XOR-of-node-hashes fold
//!   ([`plan::tree_fingerprint`]), patched by XOR-ing the touched nodes'
//!   old terms out and new terms in;
//! * the shared plan cache, whose entries for this tree are *rekeyed*
//!   from the old fingerprint to the new one (plans stay sound across
//!   edits; entries for other trees sharing the cache are untouched);
//! * any number of watched datalog programs
//!   ([`Document::watch_datalog`]), each maintained by the two-phase
//!   DRed delta pass of [`datalog::IncrementalEval`] so re-evaluation
//!   after a small edit costs `O(|change|)`, not `O(|D|)`.
//!
//! Queries run through [`Document::engine`]: an ephemeral [`Engine`]
//! borrowing the current tree, pre-seeded with the maintained stats and
//! fingerprint and sharing the document's plan cache and metrics. The
//! borrow checker makes query/edit interleavings linearizable for free —
//! an engine borrows the document shared, `edit` takes it exclusively,
//! so every query observes a tree from between two edits, never during
//! one.

use std::sync::Arc;

use treequery_datalog as datalog;
use treequery_tree::{EditDelta, EditKind, EditOp, EditableTree, NodeId, Tree};

use crate::plan::{self, Metrics};
use crate::{Engine, EngineConfig, EngineError};

/// Handle to a datalog program registered with
/// [`Document::watch_datalog`], valid for the lifetime of the document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchId(usize);

/// A mutable tree plus incrementally maintained query state. See the
/// module docs for the maintenance contract.
pub struct Document {
    tree: EditableTree,
    config: EngineConfig,
    cache: Arc<plan::PlanCache>,
    metrics: Arc<Metrics>,
    stats: plan::IncrementalStats,
    /// Per-node fingerprint terms, indexed by node id; XOR-folded (with
    /// the length term) into `fingerprint`.
    node_fps: Vec<u64>,
    fingerprint: u64,
    watches: Vec<datalog::IncrementalEval>,
}

impl Document {
    /// Wraps a frozen tree with the default configuration and a private
    /// plan cache.
    pub fn new(tree: Tree) -> Document {
        Document::with_runtime(
            tree,
            EngineConfig::default(),
            Arc::new(plan::PlanCache::default()),
            Arc::new(Metrics::default()),
        )
    }

    /// Wraps a frozen tree sharing an existing plan cache and metrics
    /// registry (several documents can pool one cache: entries are keyed
    /// by tree fingerprint, and edits rekey only this document's
    /// entries).
    pub fn with_runtime(
        tree: Tree,
        config: EngineConfig,
        cache: Arc<plan::PlanCache>,
        metrics: Arc<Metrics>,
    ) -> Document {
        let stats = plan::IncrementalStats::compute(&tree);
        let node_fps: Vec<u64> = tree
            .nodes()
            .map(|v| plan::node_fingerprint(&tree, v))
            .collect();
        let fingerprint = node_fps
            .iter()
            .fold(plan::fingerprint_len_term(tree.len()), |acc, h| acc ^ h);
        Document {
            tree: EditableTree::new(tree),
            config,
            cache,
            metrics,
            stats,
            node_fps,
            fingerprint,
            watches: Vec::new(),
        }
    }

    /// The current tree.
    pub fn tree(&self) -> &Tree {
        self.tree.tree()
    }

    /// The maintained tree fingerprint — always equal to
    /// [`plan::tree_fingerprint`] of the current tree, but `O(|change|)`
    /// to keep current.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The maintained planner statistics, materialized.
    pub fn stats(&self) -> plan::TreeStats {
        self.stats.materialize(self.tree())
    }

    /// Number of edits applied so far.
    pub fn edit_count(&self) -> u64 {
        self.tree.edit_count()
    }

    /// Number of gap-exhaustion refreezes triggered so far.
    pub fn refreeze_count(&self) -> u64 {
        self.tree.refreeze_count()
    }

    /// The shared plan cache (entries for every tree that pools it).
    pub fn plan_cache(&self) -> &Arc<plan::PlanCache> {
        &self.cache
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// An ephemeral engine over the current tree: shares the document's
    /// plan cache and metrics and starts warm (stats and fingerprint
    /// pre-seeded from the maintained state, so no `O(|D|)` pass runs).
    /// The engine borrows the document — drop it before the next
    /// [`Document::edit`].
    pub fn engine(&self) -> Engine<'_> {
        let engine = Engine::with_runtime(
            self.tree(),
            self.config.clone(),
            Arc::clone(&self.cache),
            Arc::clone(&self.metrics),
        );
        engine.seed_tree_state(self.stats(), self.fingerprint);
        engine
    }

    /// Registers a datalog program for incremental maintenance: it is
    /// evaluated once now, and every subsequent [`Document::edit`] runs
    /// the DRed delta pass instead of re-evaluating. The program must
    /// have a query predicate (`?- P.`).
    pub fn watch_datalog(&mut self, program: &str) -> Result<WatchId, EngineError> {
        let prog = datalog::parse_program(program).map_err(EngineError::Datalog)?;
        if prog.query.is_none() {
            return Err(EngineError::NoQueryPredicate);
        }
        self.watches
            .push(datalog::IncrementalEval::new(prog, self.tree()));
        Ok(WatchId(self.watches.len() - 1))
    }

    /// The maintained answer of a watched program, in document order.
    pub fn watched(&self, id: WatchId) -> Vec<NodeId> {
        let mut nodes = self.watches[id.0].query().to_vec();
        self.tree().sort_by_pre(&mut nodes);
        nodes
    }

    /// Cumulative maintenance work spent on a watched program (pinned
    /// probes; the E24 ladder asserts this stays flat in `|D|`).
    pub fn watch_work(&self, id: WatchId) -> u64 {
        self.watches[id.0].work()
    }

    /// Applies one edit and patches every maintained structure. Returns
    /// `None` (and changes nothing) when the op normalizes away (e.g.
    /// deleting the root). Each structure's repair runs in its own span:
    /// `edit.splice` (the tree), `edit.stats`, `edit.fingerprint`,
    /// `edit.rekey` (the plan cache) and `edit.watch` (both phases of
    /// the watched programs' delta pass).
    pub fn edit(&mut self, op: &EditOp) -> Option<EditDelta> {
        // Phase 1 of the DRed pass needs the *pre-edit* tree.
        let pendings: Vec<datalog::PendingEdit> = {
            let _span = treequery_obs::span("edit.watch");
            let tree = self.tree.tree();
            self.watches
                .iter_mut()
                .map(|w| w.prepare_edit(tree, op))
                .collect()
        };
        let delta = {
            let _span = treequery_obs::span("edit.splice");
            self.tree.apply(op)?
        };
        {
            let _span = treequery_obs::span("edit.stats");
            self.stats.apply_edit(self.tree.tree(), &delta);
        }
        let old_fp = self.fingerprint;
        {
            let _span = treequery_obs::span("edit.fingerprint");
            self.patch_fingerprint(&delta);
            debug_assert_eq!(self.fingerprint, plan::tree_fingerprint(self.tree.tree()));
        }
        {
            let _span = treequery_obs::span("edit.rekey");
            self.cache.rekey_tree(old_fp, self.fingerprint);
        }
        let _span = treequery_obs::span("edit.watch");
        let tree = self.tree.tree();
        for (watch, pending) in self.watches.iter_mut().zip(pendings) {
            watch.commit_edit(tree, &delta, pending);
        }
        Some(delta)
    }

    /// Applies a whole edit script; returns how many ops took effect.
    pub fn apply_script(&mut self, ops: &[EditOp]) -> usize {
        ops.iter().filter(|op| self.edit(op).is_some()).count()
    }

    /// XOR-patches the fingerprint for one applied edit, in
    /// `O(|change|)`. The per-node term reads depth, sibling index, own
    /// labels, and the parent's primary label, so the dirty terms are:
    /// on a relabel, the node's and its children's (their parent-label
    /// term); on an insert, the new leaf's and its later siblings' (their
    /// sibling index grew); on a delete, the removed nodes' terms (XOR-ed
    /// out at their old ids before the per-node vector is compacted
    /// through the tree's own id remap) and the deleted root's later
    /// siblings' (their sibling index shrank). The node-count term swaps
    /// whenever the size changed.
    fn patch_fingerprint(&mut self, delta: &EditDelta) {
        let tree = self.tree.tree();
        let old_len = (tree.len() as i64 - delta.nodes_delta()) as usize;
        self.fingerprint ^=
            plan::fingerprint_len_term(old_len) ^ plan::fingerprint_len_term(tree.len());
        match delta.kind {
            EditKind::Insert => self.node_fps.push(0), // the appended id's slot
            EditKind::Delete => {
                for &d in &delta.removed_ids {
                    self.fingerprint ^= self.node_fps[d as usize];
                }
                delta.compact(&mut self.node_fps);
            }
            EditKind::Relabel => {}
        }
        let (node_fps, fingerprint) = (&mut self.node_fps, &mut self.fingerprint);
        let mut refresh = |v: NodeId| {
            let fresh = plan::node_fingerprint(tree, v);
            let slot = &mut node_fps[v.index()];
            *fingerprint ^= *slot ^ fresh;
            *slot = fresh;
        };
        // The dirty terms: `also`, then `first` and its later siblings.
        let (also, first) = match delta.kind {
            EditKind::Insert => (None, delta.node),
            EditKind::Relabel => {
                let v = delta.node.expect("relabel delta carries the node");
                (Some(v), tree.children(v).next())
            }
            EditKind::Delete => {
                // The deleted root's next sibling now sits at its old pre
                // rank, if it had one.
                let parent = delta.parent.expect("delete delta carries the parent");
                let at = delta.pre_range.0;
                let next = (at < tree.len() as u32)
                    .then(|| tree.node_at_pre(at))
                    .filter(|&u| tree.parent(u) == Some(parent));
                (None, next)
            }
        };
        if let Some(v) = also {
            refresh(v);
        }
        let mut c = first;
        while let Some(v) = c {
            refresh(v);
            c = tree.next_sibling(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_term, Query};

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    fn random_op(state: &mut u64, n: u32) -> EditOp {
        let s = lcg(state);
        let labels = ["a", "b", "c", "r"];
        match s % 4 {
            0 | 1 => EditOp::InsertLeaf {
                parent_pre: (s >> 8) as u32 % n,
                child_idx: (s >> 40) as u32 % 4,
                label: labels[(s >> 16) as usize % labels.len()].to_owned(),
            },
            2 => EditOp::DeleteSubtree {
                pre: (s >> 8) as u32 % n,
            },
            _ => EditOp::Relabel {
                pre: (s >> 8) as u32 % n,
                label: labels[(s >> 16) as usize % labels.len()].to_owned(),
            },
        }
    }

    #[test]
    fn maintained_state_matches_recompute_under_edits() {
        let mut doc = Document::new(parse_term("r(a(b c) a(b) c)").unwrap());
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..150 {
            let op = random_op(&mut state, doc.tree().len() as u32);
            if doc.edit(&op).is_none() {
                continue;
            }
            assert_eq!(doc.fingerprint(), plan::tree_fingerprint(doc.tree()));
            assert_eq!(doc.stats(), plan::TreeStats::compute(doc.tree()));
        }
        assert!(doc.edit_count() >= 100);
    }

    /// A 200-op script on a 600-node tree, with deletes of recently
    /// inserted leaves and of original subtrees alike: the maintained
    /// fingerprint equals a full recomputation after every op (checked
    /// with `assert_eq!`, so `--release` runs check it too).
    #[test]
    fn fingerprint_matches_recompute_over_a_long_script() {
        use rand::{rngs::StdRng, SeedableRng};
        let tree = treequery_tree::random_recursive_tree(
            &mut StdRng::seed_from_u64(24),
            600,
            &["a", "b", "c", "r"],
        );
        let mut doc = Document::new(tree);
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut deletes = 0;
        for step in 0..200 {
            let n = doc.tree().len() as u32;
            let op = if step % 5 == 4 {
                // The newest node: one of the leaves inserted just before.
                let newest = NodeId(n - 1);
                EditOp::DeleteSubtree {
                    pre: doc.tree().pre(newest),
                }
            } else {
                random_op(&mut state, n)
            };
            let Some(delta) = doc.edit(&op) else {
                continue;
            };
            deletes += usize::from(delta.kind == EditKind::Delete);
            assert_eq!(
                doc.fingerprint(),
                plan::tree_fingerprint(doc.tree()),
                "after step {step}: {op}"
            );
        }
        assert!(deletes >= 60, "the script must delete: {deletes}");
    }

    /// Each structure's repair runs in its own span, and the five spans
    /// cover the edit: their wall times sum to at most the edit's, and
    /// (with work to attribute on a 4,000-node tree) to most of it.
    #[test]
    fn captured_edits_attribute_time_to_each_structure() {
        use rand::{rngs::StdRng, SeedableRng};
        const NAMES: [&str; 5] = [
            "edit.splice",
            "edit.stats",
            "edit.fingerprint",
            "edit.rekey",
            "edit.watch",
        ];
        let tree = treequery_tree::random_recursive_tree(
            &mut StdRng::seed_from_u64(7),
            4_000,
            &["a", "b", "c"],
        );
        let mut doc = Document::new(tree);
        doc.watch_datalog("P(x) :- label(x, b). P(x) :- child(x, y), P(y). ?- P.")
            .unwrap();
        let mut state = 0x9E3779B97F4A7C15u64;
        let (mut wall, mut covered) = (0u64, 0u64);
        for _ in 0..40 {
            let op = random_op(&mut state, doc.tree().len() as u32);
            let (elapsed, captured) = treequery_obs::capture(|| {
                let started = std::time::Instant::now();
                doc.edit(&op);
                started.elapsed().as_nanos() as u64
            });
            if captured.spans.is_empty() {
                continue; // normalized away
            }
            for name in NAMES {
                assert!(
                    captured.spans.iter().any(|s| s.name == name),
                    "{name} missing after {op}"
                );
            }
            let sum: u64 = captured
                .spans
                .iter()
                .filter(|s| NAMES.contains(&s.name))
                .map(|s| s.duration_ns)
                .sum();
            assert!(
                sum <= elapsed,
                "spans {sum} ns exceed the edit's {elapsed} ns"
            );
            wall += elapsed;
            covered += sum;
        }
        assert!(
            covered * 2 >= wall,
            "the five spans cover {covered} of {wall} ns"
        );
    }

    #[test]
    fn watched_datalog_tracks_edits() {
        let mut doc = Document::new(parse_term("r(a(b) a(c) b)").unwrap());
        let prog = "P(x) :- label(x, b).
                    P(x) :- child(x, y), P(y).
                    ?- P.";
        let id = doc.watch_datalog(prog).unwrap();
        let mut state = 0xD1B54A32D192ED03u64;
        for _ in 0..80 {
            let op = random_op(&mut state, doc.tree().len() as u32);
            if doc.edit(&op).is_none() {
                continue;
            }
            let expected = doc.engine().datalog(prog).unwrap();
            assert_eq!(doc.watched(id), expected, "after {op}");
        }
        assert!(doc.watch_work(id) > 0);
    }

    #[test]
    fn watch_requires_a_query_predicate() {
        let mut doc = Document::new(parse_term("r(a)").unwrap());
        // The parser defaults the query to the first rule head, so only a
        // rule-less program has none.
        assert!(matches!(
            doc.watch_datalog(""),
            Err(EngineError::NoQueryPredicate)
        ));
        assert!(matches!(
            doc.watch_datalog("P(x) :-"),
            Err(EngineError::Datalog(_))
        ));
        assert!(doc.watch_datalog("P(x) :- label(x, a).").is_ok());
    }

    #[test]
    fn engine_starts_warm_and_shares_the_cache() {
        let mut doc = Document::new(parse_term("r(a(b) c)").unwrap());
        let before = doc.engine().xpath("//a[b]").unwrap();
        // Same query on a fresh ephemeral engine: the shared cache hits.
        doc.engine().xpath("//a[b]").unwrap();
        let m = doc.metrics().snapshot();
        assert_eq!(m.plan_cache_misses, 1);
        assert_eq!(m.plan_cache_hits, 1);
        // After an edit the entry is rekeyed, not dropped: still a hit.
        doc.edit(&EditOp::Relabel {
            pre: 2,
            label: "x".to_owned(),
        })
        .unwrap();
        let after = doc.engine().xpath("//a[b]").unwrap();
        assert_eq!(doc.metrics().snapshot().plan_cache_hits, 2);
        assert_eq!(doc.plan_cache().len(), 1);
        // ... and the answer reflects the edit (b relabeled to x).
        assert_eq!(before.len(), 1);
        assert!(after.is_empty());
    }

    #[test]
    fn no_op_edits_change_nothing() {
        let mut doc = Document::new(parse_term("r(a b)").unwrap());
        let id = doc.watch_datalog("P(x) :- label(x, a). ?- P.").unwrap();
        let fp = doc.fingerprint();
        let answer = doc.watched(id);
        // Deleting the root normalizes away.
        assert!(doc.edit(&EditOp::DeleteSubtree { pre: 0 }).is_none());
        assert_eq!(doc.fingerprint(), fp);
        assert_eq!(doc.watched(id), answer);
        assert_eq!(doc.edit_count(), 0);
    }

    #[test]
    fn documents_pooling_one_cache_do_not_disturb_each_other() {
        let cache = Arc::new(plan::PlanCache::default());
        let metrics = Arc::new(Metrics::default());
        let mut a = Document::with_runtime(
            parse_term("r(a(b) c)").unwrap(),
            EngineConfig::default(),
            Arc::clone(&cache),
            Arc::clone(&metrics),
        );
        let b = Document::with_runtime(
            parse_term("x(y z)").unwrap(),
            EngineConfig::default(),
            Arc::clone(&cache),
            Arc::clone(&metrics),
        );
        a.engine().xpath("//a").unwrap();
        b.engine().xpath("//y").unwrap();
        assert_eq!(cache.len(), 2);
        // Editing A rekeys only A's entries; B's stay warm.
        a.edit(&EditOp::InsertLeaf {
            parent_pre: 0,
            child_idx: 0,
            label: "q".to_owned(),
        })
        .unwrap();
        let misses_before = metrics.snapshot().plan_cache_misses;
        b.engine().xpath("//y").unwrap();
        let m = metrics.snapshot();
        assert_eq!(m.plan_cache_misses, misses_before, "B's entry was evicted");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eval_batch_between_edits_is_linearizable() {
        // `edit` takes `&mut self` and engines borrow `&self`, so a batch
        // can never observe a half-applied edit; this pins the visible
        // contract: batches before an edit see the old tree, batches
        // after see the new one, and batch answers equal sequential ones.
        let mut doc = Document::new(parse_term("r(a(b) a(c))").unwrap());
        let queries = vec![
            Query::xpath("//a[b]"),
            Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
            Query::datalog("P(x) :- label(x, b). ?- P."),
        ];
        let before = doc.engine().eval_batch(&queries);
        doc.edit(&EditOp::Relabel {
            pre: 2,
            label: "z".to_owned(),
        })
        .unwrap();
        let after = doc.engine().eval_batch(&queries);
        let engine = doc.engine();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(after[i].as_ref().unwrap(), &engine.eval(q).unwrap());
        }
        assert_ne!(
            before[0].as_ref().unwrap(),
            after[0].as_ref().unwrap(),
            "the edit must be visible to the later batch"
        );
    }
}
