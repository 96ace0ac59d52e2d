//! Experiment driver for the reproduction.
//!
//! The paper contains no numbered tables or figures — its "evaluation" is a
//! chain of lemmas and theorems. Each module under [`experiments`]
//! regenerates the empirical counterpart of one statement (the experiment
//! index lives in DESIGN.md §6); the `experiments` binary prints every
//! table, and `--markdown` emits the EXPERIMENTS.md body.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod table;

pub use table::Table;

/// A registered experiment.
pub struct Experiment {
    /// Identifier from DESIGN.md §6 (e.g. "E6").
    pub id: &'static str,
    /// The paper statement being reproduced.
    pub paper_ref: &'static str,
    /// Runs the experiment, returning one or more result tables.
    pub run: fn() -> Vec<Table>,
}

/// All experiments, in DESIGN.md order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment { id: "E1", paper_ref: "Lemma 3 (3SAT → CLIQUE gap)", run: experiments::lemma3::run },
        Experiment { id: "E2", paper_ref: "Lemma 5 (decay of H_i past the clique prefix)", run: experiments::lemma5::run },
        Experiment { id: "E3", paper_ref: "Lemma 6 (upper bound K_{c,d})", run: experiments::lemma6::run },
        Experiment { id: "E4", paper_ref: "Lemma 7 (edge bound from the clique number)", run: experiments::lemma7::run },
        Experiment { id: "E5", paper_ref: "Lemma 8 (certified lower bound)", run: experiments::lemma8::run },
        Experiment { id: "E6", paper_ref: "Theorem 9 (QO_N inapproximability gap)", run: experiments::thm9::run },
        Experiment { id: "E7", paper_ref: "Lemma 10 (optimal pipeline memory allocation)", run: experiments::lemma10::run },
        Experiment { id: "E8", paper_ref: "Lemmas 11–12 (QO_H upper bound O(L))", run: experiments::lemma12::run },
        Experiment { id: "E9", paper_ref: "Lemmas 13–14 (QO_H lower bound Ω(G))", run: experiments::lemma13::run },
        Experiment { id: "E10", paper_ref: "Theorem 15 (QO_H inapproximability gap)", run: experiments::thm15::run },
        Experiment { id: "E11", paper_ref: "Theorem 16 (sparse QO_N)", run: experiments::sparse_n::run },
        Experiment { id: "E12", paper_ref: "Theorem 17 (sparse QO_H)", run: experiments::sparse_h::run },
        Experiment { id: "E13", paper_ref: "§6.3 (tree queries are polynomial: IKKBZ)", run: experiments::ikkbz_easy::run },
        Experiment { id: "E14", paper_ref: "Appendix A (PARTITION → SPPCS)", run: experiments::appendix_a::run },
        Experiment { id: "E15", paper_ref: "Appendix B (SPPCS → SQO−CP)", run: experiments::appendix_b::run },
        Experiment { id: "E16", paper_ref: "Certificate decoding (constructive NP-hardness)", run: experiments::decoding::run },
        Experiment { id: "E17", paper_ref: "Cost-model calibration (§2.1 estimates vs real executions)", run: experiments::calibration::run },
        Experiment { id: "F1", paper_ref: "Headline gap figure (log₂ gap vs log₂ K)", run: experiments::figure_gap::run },
        Experiment { id: "F2", paper_ref: "Heuristic competitive ratios, adversarial vs random", run: experiments::figure_heuristics::run },
    ]
}
