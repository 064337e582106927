//! Explanation-quality probes: does the explanation's cited evidence
//! actually drive the prediction?
//!
//! The survey evaluates explanation facilities by their *effects on
//! users*; the offline-metric literature that followed (Zanon et al.,
//! "Can Offline Metrics Measure Explanation Goals?"; Chen et al.,
//! "Measuring 'Why'") asks a complementary, machine-checkable question:
//! is the explanation *faithful* to the model? This module provides the
//! model-side primitives both the offline suite (`exrec-eval`) and the
//! online estimator (`exrec-obs`) build on:
//!
//! * [`evidence_units`] / [`evidence_score`] — every [`ModelEvidence`]
//!   variant decomposes into *citation units* (neighbors, anchors,
//!   features, utility terms) and an evidence-implied score recomputable
//!   with any prefix of the strongest citations removed;
//! * [`ablation_fidelity`] — the normalized score shift caused by
//!   ablating the top-cited units: high when the citations drive the
//!   prediction, zero when they are decorative;
//! * [`evidence_coverage`] — how much of the gathered evidence the
//!   rendered [`Explanation`] actually surfaces;
//! * [`provenance_depth`] — how many distinct evidence-bearing fragment
//!   kinds the explanation carries (a text-only paraphrase is shallow,
//!   a histogram + influence bars + disclosure is deep).
//!
//! All functions are pure and allocation-light; the online estimator
//! calls them on every explanation `/v1/explain` serves.

use crate::explanation::{Explanation, Fragment};
use exrec_algo::ModelEvidence;

/// How many units the top-cited ablation removes by default. Matches the
/// "remove the strongest citation" probe of the fidelity literature.
pub const DEFAULT_ABLATE_TOP: usize = 1;

/// Number of discrete citation units the evidence decomposes into.
///
/// Unstructured evidence ([`ModelEvidence::Popularity`]) counts as a
/// single unit: the aggregate statistic is the citation.
pub fn evidence_units(evidence: &ModelEvidence) -> usize {
    match evidence {
        ModelEvidence::UserNeighbors { neighbors } => neighbors.len(),
        ModelEvidence::ItemNeighbors { anchors } => anchors.len(),
        ModelEvidence::Content {
            features,
            influences,
        } => {
            if influences.is_empty() {
                features.len()
            } else {
                influences.len()
            }
        }
        ModelEvidence::Utility { terms, .. } => terms.len(),
        ModelEvidence::Popularity { .. } => 1,
        ModelEvidence::Latent { terms, .. } => terms.len(),
        _ => 0,
    }
}

/// The evidence-implied score with the `exclude_top` strongest-cited
/// units removed.
///
/// Each variant recomputes the score the way its model family combines
/// the cited units (similarity-weighted rating means for neighbor
/// evidence, share-weighted rated-item influence for content,
/// satisfaction-weighted totals for utility, bias + contributions for
/// latent). Returns `None` when the exclusion leaves nothing to score —
/// the cited units *were* the entire evidence.
pub fn evidence_score(evidence: &ModelEvidence, exclude_top: usize) -> Option<f64> {
    fn weighted_mean(pairs: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for (w, v) in pairs {
            num += w.abs() * v;
            den += w.abs();
        }
        (den > 1e-12).then_some(num / den)
    }

    match evidence {
        ModelEvidence::UserNeighbors { neighbors } => weighted_mean(
            neighbors
                .iter()
                .skip(exclude_top)
                .map(|n| (n.similarity, n.rating)),
        ),
        ModelEvidence::ItemNeighbors { anchors } => weighted_mean(
            anchors
                .iter()
                .skip(exclude_top)
                .map(|a| (a.similarity, a.user_rating)),
        ),
        ModelEvidence::Content {
            features,
            influences,
        } => {
            if influences.is_empty() {
                // No rated-item influences: the feature weights *are*
                // the score decomposition.
                let rest: Vec<f64> = features
                    .iter()
                    .skip(exclude_top)
                    .map(|f| f.weight)
                    .collect();
                (!rest.is_empty()).then(|| rest.iter().sum())
            } else {
                weighted_mean(
                    influences
                        .iter()
                        .skip(exclude_top)
                        .map(|i| (i.share, i.user_rating)),
                )
            }
        }
        ModelEvidence::Utility { terms, .. } => {
            // Terms arrive in schema order; the citation order is by
            // weighted contribution, strongest first.
            let mut order: Vec<usize> = (0..terms.len()).collect();
            order.sort_by(|&a, &b| {
                let ka = terms[a].weight * terms[a].satisfaction;
                let kb = terms[b].weight * terms[b].satisfaction;
                kb.partial_cmp(&ka).unwrap_or(std::cmp::Ordering::Equal)
            });
            weighted_mean(
                order
                    .into_iter()
                    .skip(exclude_top)
                    .map(|i| (terms[i].weight, terms[i].satisfaction)),
            )
        }
        ModelEvidence::Popularity { mean, .. } => (exclude_top == 0).then_some(*mean),
        ModelEvidence::Latent { terms, bias } => {
            if exclude_top > terms.len() {
                None
            } else {
                Some(
                    bias + terms
                        .iter()
                        .skip(exclude_top)
                        .map(|t| t.contribution)
                        .sum::<f64>(),
                )
            }
        }
        _ => None,
    }
}

/// Citation-ablation fidelity in `[0, 1]`.
///
/// Removes the `ablate` strongest-cited evidence units, recomputes the
/// evidence-implied score, and returns the absolute shift normalized by
/// `span` (the rating-scale width for rating-valued evidence, `1.0` for
/// unit-interval evidence). When ablation leaves nothing to score, the
/// shift is measured against `baseline` — the model's no-evidence
/// fallback (a user or global mean for CF models, the scale midpoint
/// otherwise).
///
/// A high value means the cited evidence genuinely drives the
/// prediction; `0.0` means the citations are decorative (or the
/// evidence-implied score could not be computed at all).
pub fn ablation_fidelity(evidence: &ModelEvidence, ablate: usize, baseline: f64, span: f64) -> f64 {
    let Some(full) = evidence_score(evidence, 0) else {
        return 0.0;
    };
    let ablated = evidence_score(evidence, ablate.max(1)).unwrap_or(baseline);
    let span = if span.abs() > 1e-12 { span.abs() } else { 1.0 };
    ((full - ablated).abs() / span).clamp(0.0, 1.0)
}

/// How many evidence units the rendered explanation surfaces.
///
/// Counts the typed, evidence-bearing content: histogram bins, influence
/// bars, key-value facts and disclosures. Free text does not count — a
/// paraphrase surfaces a claim, not a citation.
pub fn surfaced_units(explanation: &Explanation) -> usize {
    explanation
        .fragments
        .iter()
        .map(|f| match f {
            Fragment::Histogram { bins, .. } => bins.len(),
            Fragment::InfluenceBar { .. } => 1,
            Fragment::KeyValue { .. } => 1,
            Fragment::Disclosure { .. } => 1,
            _ => 0,
        })
        .sum()
}

/// Evidence coverage in `[0, 1]`: surfaced units over gathered units.
///
/// An interface that shows all eight neighbors covers more of its
/// evidence than one that paraphrases them into a sentence; coverage 0
/// means the explanation cites nothing it could be checked against.
pub fn evidence_coverage(explanation: &Explanation, evidence: &ModelEvidence) -> f64 {
    let gathered = evidence_units(evidence);
    if gathered == 0 {
        return 0.0;
    }
    (surfaced_units(explanation) as f64 / gathered as f64).clamp(0.0, 1.0)
}

/// Provenance depth: the number of *distinct* evidence-bearing fragment
/// kinds (histogram, influence bar, key-value, disclosure) present.
///
/// Depth 0 is a bare paraphrase; each additional kind is another way
/// the user can trace the recommendation back to its evidence.
pub fn provenance_depth(explanation: &Explanation) -> usize {
    let mut hist = false;
    let mut bar = false;
    let mut kv = false;
    let mut disc = false;
    for f in &explanation.fragments {
        match f {
            Fragment::Histogram { .. } => hist = true,
            Fragment::InfluenceBar { .. } => bar = true,
            Fragment::KeyValue { .. } => kv = true,
            Fragment::Disclosure { .. } => disc = true,
            _ => {}
        }
    }
    usize::from(hist) + usize::from(bar) + usize::from(kv) + usize::from(disc)
}

/// Maximum provenance depth [`provenance_depth`] can report.
pub const MAX_PROVENANCE_DEPTH: usize = 4;

/// One quality measurement over an (explanation, evidence) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityProbe {
    /// Citation-ablation fidelity in `[0, 1]` ([`ablation_fidelity`]).
    pub fidelity: f64,
    /// Evidence coverage in `[0, 1]` ([`evidence_coverage`]).
    pub coverage: f64,
    /// Provenance depth, `0..=4` ([`provenance_depth`]).
    pub provenance_depth: usize,
}

impl QualityProbe {
    /// Measures one explanation against the evidence it was generated
    /// from. `baseline` and `span` parameterize the fidelity ablation
    /// (see [`ablation_fidelity`]).
    pub fn measure(
        explanation: &Explanation,
        evidence: &ModelEvidence,
        baseline: f64,
        span: f64,
    ) -> Self {
        QualityProbe {
            fidelity: ablation_fidelity(evidence, DEFAULT_ABLATE_TOP, baseline, span),
            coverage: evidence_coverage(explanation, evidence),
            provenance_depth: provenance_depth(explanation),
        }
    }

    /// Scalar summary in `[0, 1]` — the mean of fidelity, coverage and
    /// normalized provenance depth. This is the single number exported
    /// per request by the online estimator; the offline suite keeps the
    /// components separate.
    pub fn score(&self) -> f64 {
        let depth = self.provenance_depth as f64 / MAX_PROVENANCE_DEPTH as f64;
        ((self.fidelity + self.coverage + depth) / 3.0).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aims::AimProfile;
    use crate::explanation::HistBin;
    use crate::explanation::Tone;
    use crate::style::ExplanationStyle;
    use exrec_algo::recommender::{FeatureInfluence, NeighborContribution, UtilityTerm};
    use exrec_types::UserId;

    fn neighbors(spec: &[(f64, f64)]) -> ModelEvidence {
        ModelEvidence::UserNeighbors {
            neighbors: spec
                .iter()
                .enumerate()
                .map(|(i, &(similarity, rating))| NeighborContribution {
                    user: UserId::new(i as u32),
                    similarity,
                    rating,
                })
                .collect(),
        }
    }

    #[test]
    fn evidence_score_is_similarity_weighted_mean() {
        let ev = neighbors(&[(0.8, 5.0), (0.2, 1.0)]);
        let full = evidence_score(&ev, 0).unwrap();
        assert!((full - (0.8 * 5.0 + 0.2 * 1.0) / 1.0).abs() < 1e-12);
        let ablated = evidence_score(&ev, 1).unwrap();
        assert!((ablated - 1.0).abs() < 1e-12, "only the weak neighbor left");
        assert!(evidence_score(&ev, 2).is_none(), "nothing left to score");
    }

    #[test]
    fn fidelity_high_when_top_citation_drives_the_score() {
        // Strong neighbor loves the item, weak one hates it: removing
        // the citation swings the implied score across the scale.
        let driving = neighbors(&[(0.9, 5.0), (0.1, 1.0)]);
        let fidelity = ablation_fidelity(&driving, 1, 3.0, 4.0);
        assert!(fidelity > 0.5, "driving citation ablates hard: {fidelity}");

        // Decoy: every cited neighbor says the same thing, so removing
        // the top citation moves nothing.
        let decoy = neighbors(&[(0.9, 3.0), (0.1, 3.0)]);
        let flat = ablation_fidelity(&decoy, 1, 3.0, 4.0);
        assert!(flat < 1e-9, "decorative citation ablates to nothing");
        assert!(fidelity > flat);
    }

    #[test]
    fn fidelity_of_single_unit_measures_against_baseline() {
        let ev = neighbors(&[(1.0, 5.0)]);
        // Baseline (user mean) 3.0 on a span-4 scale: |5 - 3| / 4.
        let f = ablation_fidelity(&ev, 1, 3.0, 4.0);
        assert!((f - 0.5).abs() < 1e-12);
        let pop = ModelEvidence::Popularity {
            mean: 4.0,
            count: 10,
        };
        let f = ablation_fidelity(&pop, 1, 3.0, 4.0);
        assert!((f - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utility_citation_order_is_by_weighted_contribution() {
        let ev = ModelEvidence::Utility {
            terms: vec![
                UtilityTerm {
                    attribute: "price".into(),
                    satisfaction: 0.2,
                    weight: 1.0,
                    detail: String::new(),
                },
                UtilityTerm {
                    attribute: "zoom".into(),
                    satisfaction: 0.9,
                    weight: 2.0,
                    detail: String::new(),
                },
            ],
            total: 0.66,
        };
        // Top citation is zoom (0.9 * 2.0), not price (schema order).
        let ablated = evidence_score(&ev, 1).unwrap();
        assert!((ablated - 0.2).abs() < 1e-12, "price term remains");
    }

    #[test]
    fn content_falls_back_to_feature_weights() {
        let ev = ModelEvidence::Content {
            features: vec![
                FeatureInfluence {
                    feature: "space".into(),
                    weight: 0.7,
                },
                FeatureInfluence {
                    feature: "robot".into(),
                    weight: 0.1,
                },
            ],
            influences: vec![],
        };
        assert_eq!(evidence_units(&ev), 2);
        let full = evidence_score(&ev, 0).unwrap();
        assert!((full - 0.8).abs() < 1e-12);
        let ablated = evidence_score(&ev, 1).unwrap();
        assert!((ablated - 0.1).abs() < 1e-12);
    }

    fn explanation_with(fragments: Vec<Fragment>) -> Explanation {
        Explanation::new(
            "test",
            ExplanationStyle::CollaborativeBased,
            AimProfile::empty(),
            fragments,
        )
    }

    #[test]
    fn coverage_counts_surfaced_over_gathered() {
        let ev = neighbors(&[(0.9, 5.0), (0.5, 4.0), (0.2, 2.0), (0.1, 3.0)]);
        let expl = explanation_with(vec![
            Fragment::Text("Your neighbors liked this.".into()),
            Fragment::Histogram {
                title: "Neighbors".into(),
                bins: vec![
                    HistBin {
                        label: "good".into(),
                        count: 2,
                        tone: Tone::Good,
                    },
                    HistBin {
                        label: "bad".into(),
                        count: 2,
                        tone: Tone::Bad,
                    },
                ],
            },
        ]);
        assert_eq!(surfaced_units(&expl), 2);
        assert!((evidence_coverage(&expl, &ev) - 0.5).abs() < 1e-12);
        let text_only = explanation_with(vec![Fragment::Text("Trust us.".into())]);
        assert_eq!(evidence_coverage(&text_only, &ev), 0.0);
    }

    #[test]
    fn provenance_depth_counts_distinct_kinds() {
        let shallow = explanation_with(vec![Fragment::Text("ok".into())]);
        assert_eq!(provenance_depth(&shallow), 0);
        let deep = explanation_with(vec![
            Fragment::Histogram {
                title: "h".into(),
                bins: vec![],
            },
            Fragment::InfluenceBar {
                title: "i".into(),
                rating: 4.0,
                share: 0.5,
            },
            Fragment::InfluenceBar {
                title: "j".into(),
                rating: 3.0,
                share: 0.2,
            },
            Fragment::KeyValue {
                key: "k".into(),
                value: "v".into(),
            },
            Fragment::Disclosure {
                strength: 4.2,
                confidence: None,
            },
        ]);
        assert_eq!(provenance_depth(&deep), MAX_PROVENANCE_DEPTH);
    }

    #[test]
    fn probe_score_is_bounded_and_monotone_in_components() {
        let ev = neighbors(&[(0.9, 5.0), (0.1, 1.0)]);
        let rich = explanation_with(vec![
            Fragment::Histogram {
                title: "h".into(),
                bins: vec![HistBin {
                    label: "5".into(),
                    count: 1,
                    tone: Tone::Good,
                }],
            },
            Fragment::Disclosure {
                strength: 4.5,
                confidence: None,
            },
        ]);
        let poor = explanation_with(vec![Fragment::Text("just trust the system".into())]);
        let rich_probe = QualityProbe::measure(&rich, &ev, 3.0, 4.0);
        let poor_probe = QualityProbe::measure(&poor, &ev, 3.0, 4.0);
        assert!(rich_probe.score() > poor_probe.score());
        assert!((0.0..=1.0).contains(&rich_probe.score()));
        assert!((0.0..=1.0).contains(&poor_probe.score()));
        assert_eq!(rich_probe.fidelity, poor_probe.fidelity, "same evidence");
    }
}
