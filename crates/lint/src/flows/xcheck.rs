//! Concrete cross-check: rebuild the paper's dependency table / VCG
//! from the *same* flow universe and compare verdicts.
//!
//! The VCG's cycle verdict depends only on the direct `(vc_in, vc_out)`
//! edges: role canonicalisation changes roles, never channels, and
//! composed rows only chain channels already connected directly — so a
//! direct-rows-only table under all five placements yields exactly the
//! concrete cycle verdict. A flow-graph cycle whose channel set is
//! contained in a concrete VCG cycle is *corroborated* (CCL031); one
//! the concrete table cannot reproduce is reported as CCL032 (info) for
//! triage instead.

use super::model::FlowUniverse;
use ccsql::depend::{dependency_table, AnalysisConfig};
use ccsql::vcg::Vcg;

/// The concrete side of the differential.
pub struct Concrete {
    /// Channel sets of the cycles of the VCG over the universe's direct
    /// dependency rows, all five placements (each sorted).
    pub cycle_channels: Vec<Vec<String>>,
}

impl Concrete {
    /// Build the concrete dependency table and VCG from a universe: the
    /// dependency table's own builder, without composition.
    pub fn build(u: &FlowUniverse) -> Concrete {
        let _fspan = ccsql_obs::flight::span("flows", "xcheck");
        let cfg = AnalysisConfig {
            compose: false,
            ..AnalysisConfig::default()
        };
        let table = dependency_table(&u.rows, &cfg);
        let cycle_channels = Vcg::build(&table)
            .cycles()
            .iter()
            .map(|c| {
                let mut chs: Vec<String> = c.channels.iter().map(|s| s.to_string()).collect();
                chs.sort();
                chs
            })
            .collect();
        Concrete { cycle_channels }
    }

    /// Is a flow-cycle channel set contained in some concrete cycle?
    pub fn corroborates(&self, channels: &[String]) -> bool {
        self.cycle_channels
            .iter()
            .any(|cc| channels.iter().all(|c| cc.contains(c)))
    }
}
