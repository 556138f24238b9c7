//! Layer probes for the workloads whose analyses run in another process:
//! the traced run times `Frontend::compile_str` and `CellLayout::new` +
//! `Packs::discover` on the workload's own programs, in this process, after
//! its traced phase.

use crate::corpus::Request;
use crate::trace::Tracer;
use astree_core::{AnalysisConfig, Packs};
use astree_frontend::Frontend;
use astree_ir::Program;
use astree_memory::{CellLayout, LayoutConfig};

/// Cell layout + pack discovery, as `AnalysisSession::run` does them first.
pub fn discover_packs(program: &Program, config: &AnalysisConfig) -> Packs {
    let layout =
        CellLayout::new(program, &LayoutConfig { shrink_threshold: config.shrink_threshold });
    Packs::discover(program, &layout, config)
}

pub fn layers(programs: &[Request], tracer: &Tracer) {
    let config = AnalysisConfig::default();
    for (i, req) in programs.iter().enumerate() {
        let id = 1_000_000 + i as u64;
        tracer.span("probe", None, id, req.kloc, |root| {
            let program = tracer
                .span("frontend", Some(root), id, req.kloc, |_| {
                    Frontend::new().compile_str(&req.source)
                })
                .expect("generated members compile");
            tracer.span("packs", Some(root), id, req.kloc, |_| {
                std::hint::black_box(discover_packs(&program, &config));
            });
        });
    }
}
