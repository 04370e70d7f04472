//! Algorithm 3: the boundary search that decomposes a temporal range query
//! into a query plan over the HIGGS tree.
//!
//! Starting from the (virtual) root, subtrees that are *entirely* covered by
//! the queried range `[ts, te]` and whose aggregate matrix has materialised
//! contribute that single timestamp-free matrix; subtrees straddling a
//! boundary are descended into, until the boundary leaves are reached, where
//! per-entry timestamp offsets filter exactly the in-range items. The plan
//! therefore touches `O(θ · log(Lq / L'))` matrices (Section V-B) and never
//! double-counts: the targets cover disjoint portions of the stream.

use crate::tree::HiggsSummary;
use higgs_common::TimeRange;

/// One element of a query plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryTarget {
    /// Query the aggregated matrix of internal node `internals[level][index]`
    /// (tree layer `level + 2`); no temporal filtering is needed because the
    /// whole subtree lies inside the queried range.
    Aggregate {
        /// Internal level (0 = the layer right above the leaves).
        level: usize,
        /// Node index within the level.
        index: usize,
    },
    /// Query leaf `index` with the given inclusive offset filter.
    Leaf {
        /// Leaf index.
        index: usize,
        /// Inclusive `(low, high)` filter on stored time offsets.
        filter: (u32, u32),
    },
}

/// A decomposed temporal range query: the list of matrices to visit.
#[derive(Clone, Debug, Default)]
pub struct QueryPlan {
    /// Matrices to visit, in tree order.
    pub targets: Vec<QueryTarget>,
    /// The original query range.
    pub range: Option<TimeRange>,
}

impl QueryPlan {
    /// Number of matrices the plan touches.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the plan touches no matrix at all.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of aggregate (non-leaf) targets.
    pub fn aggregate_count(&self) -> usize {
        self.targets
            .iter()
            .filter(|t| matches!(t, QueryTarget::Aggregate { .. }))
            .count()
    }

    /// Number of leaf targets.
    pub fn leaf_count(&self) -> usize {
        self.targets
            .iter()
            .filter(|t| matches!(t, QueryTarget::Leaf { .. }))
            .count()
    }
}

impl HiggsSummary {
    /// Decomposes `[range.start, range.end]` into a query plan (Algorithm 3).
    ///
    /// Every call runs one boundary search and bumps the
    /// [`plans_built`](Self::plans_built) counter; the batch executor
    /// ([`TemporalGraphSummary::query_batch`](higgs_common::TemporalGraphSummary::query_batch))
    /// calls this once per distinct range and reuses the plan across every
    /// query sharing it.
    pub fn plan(&self, range: TimeRange) -> QueryPlan {
        self.plans_built.increment();
        let mut plan = QueryPlan {
            targets: Vec::new(),
            range: Some(range),
        };
        if self.leaves.is_empty() {
            return plan;
        }
        let theta = self.config.theta();
        // Smallest level whose span of θ^level leaves covers the whole tree.
        let n = self.leaves.len();
        let mut top_level = 0usize;
        let mut span = 1usize;
        while span < n {
            span = span.saturating_mul(theta);
            top_level += 1;
        }
        let roots = n.div_ceil(span.max(1));
        for idx in 0..roots {
            self.plan_node(top_level, idx, range, &mut plan.targets);
        }
        plan
    }

    /// Recursive step of the boundary search over the conceptual θ-ary tree
    /// whose level-`level` node `idx` covers leaves
    /// `[idx·θ^level, (idx+1)·θ^level)`.
    fn plan_node(
        &self,
        level: usize,
        idx: usize,
        range: TimeRange,
        targets: &mut Vec<QueryTarget>,
    ) {
        let theta = self.config.theta();
        let span = theta.pow(level as u32);
        let first_leaf = idx * span;
        if first_leaf >= self.leaves.len() {
            return;
        }
        let last_leaf = ((idx + 1) * span - 1).min(self.leaves.len() - 1);
        let node_range = TimeRange::new(
            self.leaves[first_leaf].start_time,
            self.leaves[last_leaf].end_time,
        );
        if !range.overlaps(&node_range) {
            return;
        }
        if level == 0 {
            if let Some(filter) = self.leaves[first_leaf].offset_filter(range) {
                targets.push(QueryTarget::Leaf {
                    index: first_leaf,
                    filter,
                });
            }
            return;
        }
        // Use the aggregated matrix only when the subtree is complete,
        // materialised, and entirely inside the queried range.
        if range.contains_range(&node_range) {
            let complete = (idx + 1) * span <= self.closed_leaves();
            if complete {
                if let Some(node) = self
                    .internals
                    .get(level - 1)
                    .and_then(|nodes| nodes.get(idx))
                {
                    if node.matrix.is_some() {
                        targets.push(QueryTarget::Aggregate {
                            level: level - 1,
                            index: idx,
                        });
                        return;
                    }
                }
            }
        }
        for child in 0..theta {
            self.plan_node(level - 1, idx * theta + child, range, targets);
        }
    }

    /// Number of leaves that are closed (every leaf except the newest one).
    fn closed_leaves(&self) -> usize {
        self.leaves.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiggsConfig;
    use higgs_common::{StreamEdge, TemporalGraphSummary};

    fn tiny_config() -> HiggsConfig {
        HiggsConfig {
            d1: 4,
            f1_bits: 12,
            r_bits: 1,
            bucket_entries: 2,
            mapping_addresses: 2,
            overflow_blocks: true,
            shards: 1,
            plan_cache_capacity: 8,
            ingest_queue_cap: None,
            admission_tick: std::time::Duration::ZERO,
            service_queue_depth: None,
            journal_mode: crate::config::JournalMode::Off,
        }
    }

    fn build(n: u64) -> HiggsSummary {
        let mut s = HiggsSummary::new(tiny_config());
        for i in 0..n {
            s.insert_edge(&StreamEdge::new(i % 97, (i * 5) % 97, 1, i));
        }
        s
    }

    #[test]
    fn empty_summary_has_empty_plan() {
        let s = HiggsSummary::new(tiny_config());
        let plan = s.plan(TimeRange::new(0, 100));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn full_range_plan_uses_aggregates() {
        let s = build(5_000);
        let plan = s.plan(TimeRange::all());
        assert!(!plan.is_empty());
        assert!(
            plan.aggregate_count() > 0,
            "whole-stream query should hit aggregated matrices"
        );
        // Far fewer targets than leaves thanks to aggregation.
        assert!(plan.len() < s.leaf_count());
    }

    #[test]
    fn narrow_range_plan_touches_few_leaves() {
        let s = build(5_000);
        let span = s.time_span().unwrap();
        let mid = (span.start + span.end) / 2;
        let plan = s.plan(TimeRange::new(mid, mid + 3));
        assert!(
            plan.len() <= 4,
            "narrow query should touch few matrices: {plan:?}"
        );
        assert_eq!(plan.aggregate_count(), 0);
    }

    #[test]
    fn plan_targets_cover_disjoint_leaves() {
        let s = build(4_000);
        let span = s.time_span().unwrap();
        let range = TimeRange::new(span.start + span.len() / 4, span.end - span.len() / 4);
        let plan = s.plan(range);
        let theta = s.config().theta();
        let mut covered_leaves = std::collections::HashSet::new();
        for t in &plan.targets {
            match *t {
                QueryTarget::Leaf { index, .. } => {
                    assert!(covered_leaves.insert(index), "leaf {index} visited twice");
                }
                QueryTarget::Aggregate { level, index } => {
                    let span_leaves = theta.pow(level as u32 + 1);
                    for leaf in index * span_leaves..(index + 1) * span_leaves {
                        assert!(
                            covered_leaves.insert(leaf),
                            "leaf {leaf} covered by two targets"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plan_grows_logarithmically_with_range_length() {
        let s = build(8_000);
        let span = s.time_span().unwrap();
        let small = s.plan(TimeRange::new(span.start, span.start + 10)).len();
        let medium = s
            .plan(TimeRange::new(span.start, span.start + span.len() / 8))
            .len();
        let large = s.plan(TimeRange::all()).len();
        assert!(small <= medium);
        // The full-range plan collapses to the top aggregates, so it is small
        // again — the hallmark of the hierarchical decomposition.
        assert!(large <= medium.max(small) + s.config().theta() * 4);
    }

    #[test]
    fn out_of_span_range_yields_empty_or_leafless_plan() {
        let s = build(1_000);
        let span = s.time_span().unwrap();
        let plan = s.plan(TimeRange::new(span.end + 10, span.end + 20));
        assert_eq!(plan.len(), 0);
        // Sanity: queries over that range return zero.
        assert_eq!(
            s.edge_query(1, 5, TimeRange::new(span.end + 10, span.end + 20)),
            0
        );
    }
}
