//! The committed `quality_report.json` is what `repro --offline-metrics`
//! produces today: regenerating the offline suite must reproduce every
//! interface and aim field bit for bit. The file's `benchmark` and
//! `meta` stamps (git revision, thread count) are not compared.

use exrec::eval::quality::{run, InterfaceQuality, QualityConfig, QualityReport};

fn committed() -> QualityReport {
    let text = include_str!("../quality_report.json");
    QualityReport::from_json(text).expect("committed report parses")
}

/// Every measured field of `q` as bits: equal arrays mean bit-identical
/// scores.
fn bits(q: &InterfaceQuality) -> [u64; 7] {
    [
        q.fidelity,
        q.evidence_precision,
        q.evidence_recall,
        q.evidence_f1,
        q.coverage,
        q.provenance_depth,
        q.reading_cost,
    ]
    .map(f64::to_bits)
}

#[test]
fn committed_quality_report_regenerates_unchanged() {
    let want = committed();
    let got = run(&QualityConfig::default(), 1);
    assert_eq!(got.schema_version, want.schema_version);
    assert_eq!(got.world, want.world);

    assert_eq!(got.interfaces.len(), want.interfaces.len());
    for (g, w) in got.interfaces.iter().zip(&want.interfaces) {
        assert_eq!(
            (&g.name, g.samples, bits(g)),
            (&w.name, w.samples, bits(w)),
            "regenerated {g:?} vs committed {w:?}"
        );
    }

    assert_eq!(got.aims.len(), want.aims.len());
    for (g, w) in got.aims.iter().zip(&want.aims) {
        assert_eq!(
            (&g.name, &g.best_interface, &g.static_default, g.candidates),
            (&w.name, &w.best_interface, &w.static_default, w.candidates)
        );
        assert_eq!(
            (g.score.to_bits(), g.static_score.to_bits()),
            (w.score.to_bits(), w.static_score.to_bits()),
            "regenerated {g:?} vs committed {w:?}"
        );
    }
}
